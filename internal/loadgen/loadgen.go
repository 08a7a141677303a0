// Package loadgen drives a running speedtestd with concurrent
// real-protocol clients — Ookla over raw TCP, ndt7 over WebSocket and
// Xfinity-style HTTP — and then reports the daemon's serving-path latency
// percentiles. The percentiles are deliberately NOT measured client-side:
// they are reconstructed from the daemon's own scraped self-telemetry via
// /debug/obs/history, so the harness exercises the whole observability
// pipeline (middleware histogram → scraper → columnar self-store → history
// endpoint → windowed quantile) end to end.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/speedtest/xfinity"
	"github.com/clasp-measurement/clasp/internal/telemetry"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// HTTPDurationFamily mirrors daemon.HTTPDurationFamily without importing
// the server side: loadgen only needs the daemon's HTTP surface, so it can
// drive a remote speedtestd it does not link against.
const HTTPDurationFamily = "speedtestd_http_request_duration_ns"

// OoklaDurationFamily is the per-command histogram family the Ookla server
// records (the TCP protocol never passes through the HTTP middleware).
const OoklaDurationFamily = "ookla_command_duration_ns"

// Config tunes one load run.
type Config struct {
	// HTTPAddr is the daemon's HTTP address (ndt7 + xfinity + history).
	HTTPAddr string
	// OoklaAddr is the daemon's Ookla TCP address; "" drops ookla from
	// the platform mix.
	OoklaAddr string

	// Clients is the number of concurrent client goroutines (default 8).
	Clients int
	// PerClient is how many tests each client runs back to back
	// (default 1). Total tests = Clients × PerClient.
	PerClient int
	// Duration bounds each transfer phase within a test (default 100ms;
	// a full test runs a handful of phases).
	Duration time.Duration
	// Platforms is the mix cycled across tests ("ookla", "mlab",
	// "comcast"); default is all three (minus ookla when OoklaAddr is "").
	Platforms []string
}

// settleTimeout bounds the post-drive wait for the daemon's scraper to
// publish the final counts into its self-store. The harness polls the
// history endpoint until the serving-path window stops growing.
const settleTimeout = 10 * time.Second

func (c Config) withDefaults() Config {
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.PerClient <= 0 {
		c.PerClient = 1
	}
	if c.Duration <= 0 {
		c.Duration = 100 * time.Millisecond
	}
	if len(c.Platforms) == 0 {
		if c.OoklaAddr != "" {
			c.Platforms = []string{"ookla", "mlab", "comcast"}
		} else {
			c.Platforms = []string{"mlab", "comcast"}
		}
	}
	return c
}

// Quantiles is the windowed latency summary of one tagged histogram
// series group (one route/status pair, or one ookla command). Values are
// nanoseconds, straight from the daemon's histograms.
type Quantiles struct {
	Tags  map[string]string `json:"tags"`
	Count uint64            `json:"count"`
	P50   float64           `json:"p50_ns"`
	P90   float64           `json:"p90_ns"`
	P99   float64           `json:"p99_ns"`
}

// Result is one load run's outcome.
type Result struct {
	Requested int            `json:"requested"`
	Succeeded int            `json:"succeeded"`
	Failed    int            `json:"failed"`
	ByPlat    map[string]int `json:"by_platform"`
	Errors    []string       `json:"errors,omitempty"` // first few failure messages
	Elapsed   time.Duration  `json:"elapsed_ns"`

	// HTTP holds per-route/status serving-path percentiles for the drive
	// window, computed from the daemon's scraped history. Ookla holds the
	// per-command equivalents when OoklaAddr was set.
	HTTP  []Quantiles `json:"http"`
	Ookla []Quantiles `json:"ookla,omitempty"`
}

// maxErrors bounds how many failure messages a Result carries.
const maxErrors = 5

// Run executes the load drive and assembles percentiles from the daemon's
// scraped history. A client failure does not abort the run — it is
// tallied — but a history/scrape failure does, since the percentiles are
// the harness's whole point.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	start := time.Now()
	res := &Result{
		Requested: cfg.Clients * cfg.PerClient,
		ByPlat:    make(map[string]int),
	}

	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(client int) {
			defer wg.Done()
			for j := 0; j < cfg.PerClient; j++ {
				plat := cfg.Platforms[(client*cfg.PerClient+j)%len(cfg.Platforms)]
				err := cfg.runOne(ctx, plat)
				mu.Lock()
				if err != nil {
					res.Failed++
					if len(res.Errors) < maxErrors {
						res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", plat, err))
					}
				} else {
					res.Succeeded++
					res.ByPlat[plat]++
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)

	// The daemon scrapes on its own cadence; wait until the serving-path
	// window covering the drive stops growing before reading percentiles.
	// The stability check must ignore the introspection routes: polling
	// the history endpoint is itself instrumented traffic, so counting it
	// would chase our own tail and never converge.
	settle, cancel := context.WithTimeout(ctx, settleTimeout)
	httpQ, err := settleQuantiles(settle, cfg.HTTPAddr, HTTPDurationFamily, start, func(q Quantiles) bool {
		r := q.Tags["route"]
		return r != "/debug/obs/history" && r != "/metrics"
	})
	cancel()
	if err != nil {
		return res, fmt.Errorf("loadgen: serving-path history: %w", err)
	}
	res.HTTP = httpQ
	if cfg.OoklaAddr != "" {
		settle, cancel := context.WithTimeout(ctx, settleTimeout)
		oq, err := settleQuantiles(settle, cfg.HTTPAddr, OoklaDurationFamily, start, nil)
		cancel()
		if err != nil {
			return res, fmt.Errorf("loadgen: ookla history: %w", err)
		}
		res.Ookla = oq
	}
	return res, nil
}

// runOne executes a single test on the chosen platform.
func (c Config) runOne(ctx context.Context, plat string) error {
	switch plat {
	case "ookla":
		_, err := ookla.NewClient(ookla.Config{
			PingCount:        2,
			DownloadDuration: c.Duration,
			UploadDuration:   c.Duration,
			BlockBytes:       64 << 10,
		}).Run(ctx, c.OoklaAddr)
		return err
	case "mlab":
		_, err := ndt7.NewClient(ndt7.Config{Duration: c.Duration}).Run(ctx, c.HTTPAddr)
		return err
	case "comcast":
		_, err := xfinity.NewClient(xfinity.Config{
			Connections: 2,
			Duration:    c.Duration,
			ObjectBytes: 256 << 10,
			PingCount:   2,
		}).Run(ctx, c.HTTPAddr)
		return err
	default:
		return fmt.Errorf("unknown platform %q", plat)
	}
}

// FetchQuantiles reads one histogram family's scraped bucket series from a
// daemon's /debug/obs/history endpoint and reduces the [from, now] window
// to per-group p50/p90/p99.
func FetchQuantiles(ctx context.Context, httpAddr, family string, from time.Time) ([]Quantiles, error) {
	series, to, err := fetchBuckets(ctx, httpAddr, family)
	if err != nil {
		return nil, err
	}
	return reduce(series, from, to), nil
}

// settleQuantiles polls FetchQuantiles until the family's total windowed
// count — over groups passing the include filter (nil includes all) — is
// stable across two polls (the scraper has caught up with the drive) or
// ctx expires, returning the last snapshot either way, so a slow scraper
// degrades to "best effort" only after the full timeout.
func settleQuantiles(ctx context.Context, httpAddr, family string, from time.Time, include func(Quantiles) bool) ([]Quantiles, error) {
	var prev uint64
	var last []Quantiles
	first := true
	for {
		q, err := FetchQuantiles(ctx, httpAddr, family, from)
		if err != nil {
			return nil, err
		}
		var total uint64
		for _, g := range q {
			if include != nil && !include(g) {
				continue
			}
			total += g.Count
		}
		if !first && total > 0 && total == prev {
			return q, nil
		}
		first, prev, last = false, total, q
		select {
		case <-ctx.Done():
			return last, nil
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// fetchBuckets GETs the family's "<family>_bucket" history (unbounded
// window: quantile reconstruction needs the pre-drive baselines too).
func fetchBuckets(ctx context.Context, httpAddr, family string) ([]tsdb.Series, time.Time, error) {
	url := fmt.Sprintf("http://%s/debug/obs/history?measurement=%s_bucket", httpAddr, family)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, time.Time{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, time.Time{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, time.Time{}, fmt.Errorf("history endpoint: HTTP %d", resp.StatusCode)
	}
	var hr telemetry.HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return nil, time.Time{}, fmt.Errorf("history decode: %w", err)
	}
	return hr.ToSeries(), time.Now(), nil
}

// reduce windows the bucket series and keeps only groups active in the
// window, sorted by descending count (busiest route first).
func reduce(series []tsdb.Series, from, to time.Time) []Quantiles {
	windows := telemetry.WindowsFromSeries(series, from, to)
	out := make([]Quantiles, 0, len(windows))
	for _, w := range windows {
		if w.Count == 0 {
			continue
		}
		out = append(out, Quantiles{
			Tags:  w.Tags,
			Count: w.Count,
			P50:   w.Quantile(0.50),
			P90:   w.Quantile(0.90),
			P99:   w.Quantile(0.99),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return fmt.Sprint(out[i].Tags) < fmt.Sprint(out[j].Tags)
	})
	return out
}
