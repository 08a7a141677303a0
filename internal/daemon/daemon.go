// Package daemon is the embeddable core of cmd/speedtestd: the three
// speed-test protocol servers, the serving-path telemetry (per-route /
// per-status latency histograms through hijack-safe middleware, a
// self-telemetry scrape pipeline into a columnar tsdb store), and the
// introspection endpoints (/metrics, /debug/vars, /debug/obs/history,
// net/http/pprof). Extracting it from main() lets tests and the loadgen
// tool boot the full daemon in-process on ephemeral ports.
package daemon

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/speedtest"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/speedtest/xfinity"
	"github.com/clasp-measurement/clasp/internal/telemetry"
)

// Routes is the bounded route-label allow-list for the middleware; paths
// outside it record as "other". Entries ending in "/" match by prefix.
var Routes = []string{
	ndt7.DownloadPath,
	ndt7.UploadPath,
	xfinity.LatencyPath,
	xfinity.DownloadPath,
	xfinity.UploadPath,
	"/servers.json",
	"/metrics",
	"/debug/vars",
	"/debug/obs/history",
	"/debug/pprof/",
	"/",
}

// expvarOnce guards the process-global expvar registration: Publish panics
// on a duplicate name, and in-process tests boot more than one daemon.
var expvarOnce sync.Once

// Config configures a daemon. The zero value listens on the production
// defaults; tests pass "127.0.0.1:0" for ephemeral ports.
type Config struct {
	OoklaAddr    string        // default 127.0.0.1:8080
	HTTPAddr     string        // default 127.0.0.1:8081
	NDT7Duration time.Duration // ndt7 test length, default 10s

	// ScrapeInterval is the self-telemetry cadence; default 5s.
	ScrapeInterval time.Duration
	// Retention bounds self-store history; default 1h, <0 keeps everything.
	Retention time.Duration

	// Logf receives startup/shutdown lines; nil discards them.
	Logf func(format string, args ...any)
}

// Daemon is a running speedtestd instance.
type Daemon struct {
	Pipeline *telemetry.Pipeline

	cfg     Config
	ookla   *ookla.Server
	httpSrv *http.Server
	httpLn  net.Listener
	errc    chan error
}

// Start boots the daemon: Ookla TCP server, HTTP listener (ndt7 + xfinity
// + directory + introspection) behind the telemetry middleware, and the
// self-telemetry scrape pipeline. It also enables the obs registry — a
// long-lived daemon always runs with live metrics on.
func Start(cfg Config) (*Daemon, error) {
	if cfg.OoklaAddr == "" {
		cfg.OoklaAddr = "127.0.0.1:8080"
	}
	if cfg.HTTPAddr == "" {
		cfg.HTTPAddr = "127.0.0.1:8081"
	}
	if cfg.NDT7Duration <= 0 {
		cfg.NDT7Duration = 10 * time.Second
	}
	if cfg.ScrapeInterval <= 0 {
		cfg.ScrapeInterval = 5 * time.Second
	}
	if cfg.Retention == 0 {
		cfg.Retention = time.Hour
	} else if cfg.Retention < 0 {
		cfg.Retention = 0 // explicit "keep everything"
	}
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	obs.SetEnabled(true)
	expvarOnce.Do(func() {
		expvar.Publish("clasp_obs", expvar.Func(func() any { return obs.Default().Snapshot() }))
	})

	srv, err := ookla.Listen(cfg.OoklaAddr)
	if err != nil {
		return nil, fmt.Errorf("daemon: ookla listen: %w", err)
	}
	logf("ookla protocol on %s", srv.Addr())

	ln, err := net.Listen("tcp", cfg.HTTPAddr)
	if err != nil {
		_ = srv.Close()
		return nil, fmt.Errorf("daemon: http listen: %w", err)
	}
	logf("ndt7 + xfinity + directory on http://%s", ln.Addr())

	pipeline := telemetry.NewPipeline(telemetry.PipelineConfig{
		Interval:  cfg.ScrapeInterval,
		Retention: cfg.Retention,
	})
	pipeline.Start()

	directory := speedtest.NewDirectory([]speedtest.ServerInfo{
		{ID: 1, Platform: "ookla", Host: srv.Addr().String(), City: "localhost", Country: "US", Sponsor: "clasp"},
		{ID: 2, Platform: "mlab", Host: ln.Addr().String(), City: "localhost", Country: "US", Sponsor: "clasp"},
		{ID: 3, Platform: "comcast", Host: ln.Addr().String(), City: "localhost", Country: "US", Sponsor: "clasp"},
	})

	mux := http.NewServeMux()
	ndt := &ndt7.Handler{Duration: cfg.NDT7Duration}
	mux.Handle(ndt7.DownloadPath, ndt)
	mux.Handle(ndt7.UploadPath, ndt)
	xf := &xfinity.Handler{}
	mux.Handle(xfinity.LatencyPath, xf)
	mux.Handle(xfinity.DownloadPath, xf)
	mux.Handle(xfinity.UploadPath, xf)
	mux.Handle("/servers.json", directory)
	mux.Handle("/debug/vars", expvar.Handler())
	telemetry.Introspection{History: pipeline.Store}.Register(mux)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "clasp speedtestd: /servers.json, /ndt/v7/{download,upload}, /speedtest/{latency,download,upload}, /metrics, /debug/vars, /debug/obs/history, /debug/pprof/")
	})

	metrics := telemetry.NewHTTPMetrics(obs.Default(), Routes)
	httpSrv := &http.Server{Handler: metrics.Wrap(mux)}
	d := &Daemon{
		Pipeline: pipeline,
		cfg:      cfg,
		ookla:    srv,
		httpSrv:  httpSrv,
		httpLn:   ln,
		errc:     make(chan error, 1),
	}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			d.errc <- err
		}
	}()
	return d, nil
}

// HTTPAddr returns the bound HTTP address.
func (d *Daemon) HTTPAddr() net.Addr { return d.httpLn.Addr() }

// OoklaAddr returns the bound Ookla TCP address.
func (d *Daemon) OoklaAddr() net.Addr { return d.ookla.Addr() }

// Err yields a fatal serve error, if any; used by main to die loudly.
func (d *Daemon) Err() <-chan error { return d.errc }

// Shutdown drains both listeners symmetrically under ctx — in-flight tests
// get until the deadline before remaining connections are severed — then
// stops the telemetry pipeline.
func (d *Daemon) Shutdown(ctx context.Context) error {
	logf := d.cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var wg sync.WaitGroup
	var httpErr, ooklaErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := d.httpSrv.Shutdown(ctx); err != nil {
			httpErr = err
			logf("daemon: forced http shutdown: %v", err)
		}
	}()
	go func() {
		defer wg.Done()
		if err := d.ookla.Shutdown(ctx); err != nil {
			ooklaErr = err
			logf("daemon: forced ookla shutdown: %v", err)
		}
	}()
	wg.Wait()
	d.Pipeline.Stop()
	if httpErr != nil {
		return httpErr
	}
	return ooklaErr
}
