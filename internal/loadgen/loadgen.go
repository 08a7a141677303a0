// Package loadgen drives a running speedtestd with concurrent
// real-protocol clients — Ookla over raw TCP, ndt7 over WebSocket and
// Xfinity-style HTTP — and then reports the daemon's serving-path latency
// percentiles. The percentiles are deliberately NOT measured client-side:
// they are the difference of two reads of the daemon's own /debug/vars
// histograms, one before the drive and one after it, so the harness
// exercises the daemon's observability path (middleware histogram →
// /debug/vars × 2 → windowed quantile) end to end.
package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/speedtest/xfinity"
	"github.com/clasp-measurement/clasp/internal/telemetry"
)

// OoklaDurationFamily is the per-command histogram family the Ookla server
// records (the TCP protocol never passes through the HTTP middleware).
const OoklaDurationFamily = "ookla_command_duration_ns"

// Config tunes one load run.
type Config struct {
	// HTTPAddr is the daemon's HTTP address (ndt7 + xfinity + /debug/vars).
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

// settleTimeout bounds the post-drive wait for the daemon to record the
// drive's last requests, and settlePoll spaces the reads of /debug/vars
// that wait: the middleware records a request after its handler returns,
// which can be after the client has read the last byte.
const (
	settleTimeout = 10 * time.Second
	settlePoll    = 20 * time.Millisecond
)

// varsRoute is the route loadgen's own reads of /debug/vars record under;
// they are the harness's traffic, not the drive's, so no total or result
// counts them.
const varsRoute = "/debug/vars"

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
	// window, computed from two snapshots of the daemon's histograms. Ookla
	// holds the per-command equivalents when OoklaAddr was set.
	HTTP  []Quantiles `json:"http"`
	Ookla []Quantiles `json:"ookla,omitempty"`
}

// maxErrors bounds how many failure messages a Result carries.
const maxErrors = 5

// Run executes the load drive and assembles percentiles from the daemon's
// /debug/vars, read once before the drive and again after it. A client
// failure does not abort the run — it is tallied — but a failed or
// malformed read does, since the percentiles are the harness's whole point.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	before, err := readVars(ctx, cfg.HTTPAddr)
	if err != nil {
		return nil, fmt.Errorf("loadgen: /debug/vars before the drive: %w", err)
	}
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

	settle, cancel := context.WithTimeout(ctx, settleTimeout)
	after, err := settledVars(settle, cfg.HTTPAddr)
	cancel()
	if err != nil {
		return res, fmt.Errorf("loadgen: /debug/vars after the drive: %w", err)
	}
	if res.HTTP, err = reduce(before, after, telemetry.HTTPDurationFamily); err != nil {
		return res, err
	}
	if cfg.OoklaAddr != "" {
		if res.Ookla, err = reduce(before, after, OoklaDurationFamily); err != nil {
			return res, err
		}
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

// series is one histogram series of a /debug/vars read: its family, its
// labels and its snapshot.
type series struct {
	family string
	tags   map[string]string
	value  obs.HistogramValue
}

// snapshot is one /debug/vars read: every histogram series of the families
// loadgen reports, by series id, except those of varsRoute.
type snapshot map[string]series

// total is the number of observations the snapshot holds.
func (s snapshot) total() uint64 {
	var n uint64
	for _, sr := range s {
		n += sr.value.Count
	}
	return n
}

// readVars GETs the daemon's /debug/vars and keeps the histograms of the
// two families loadgen reports. The reply is the daemon's, not ours: an id
// obs.SplitSeriesID refuses or a value that is no histogram is an error.
func readVars(ctx context.Context, httpAddr string) (snapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+httpAddr+"/debug/vars", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	var vars struct {
		Obs map[string]json.RawMessage `json:"clasp_obs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, err
	}
	snap := make(snapshot)
	for id, raw := range vars.Obs {
		family, labels, ok := obs.SplitSeriesID(id)
		if !ok {
			return nil, fmt.Errorf("bad series id %q", id)
		}
		if family != telemetry.HTTPDurationFamily && family != OoklaDurationFamily {
			continue
		}
		sr := series{family: family, tags: make(map[string]string, len(labels)/2)}
		for i := 0; i < len(labels); i += 2 {
			sr.tags[labels[i]] = labels[i+1]
		}
		if sr.tags["route"] == varsRoute {
			continue
		}
		if err := json.Unmarshal(raw, &sr.value); err != nil {
			return nil, fmt.Errorf("series %s: %w", id, err)
		}
		snap[id] = sr
	}
	return snap, nil
}

// settledVars reads /debug/vars until two reads in a row hold the same
// total, or ctx expires, returning the last read either way.
func settledVars(ctx context.Context, httpAddr string) (snapshot, error) {
	prev, err := readVars(ctx, httpAddr)
	if err != nil {
		return nil, err
	}
	for {
		select {
		case <-ctx.Done():
			return prev, nil
		case <-time.After(settlePoll):
		}
		snap, err := readVars(ctx, httpAddr)
		if err != nil {
			return nil, err
		}
		if snap.total() == prev.total() {
			return snap, nil
		}
		prev = snap
	}
}

// reduce windows each series of family between the two reads and keeps
// only those active in the window, sorted by descending count (busiest
// route first).
func reduce(before, after snapshot, family string) ([]Quantiles, error) {
	var out []Quantiles
	for id, sr := range after {
		if sr.family != family {
			continue
		}
		w, err := telemetry.Window(before[id].value, sr.value)
		if err != nil {
			return nil, fmt.Errorf("loadgen: series %s: %w", id, err)
		}
		if w.Count == 0 {
			continue
		}
		out = append(out, Quantiles{
			Tags:  sr.tags,
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
	return out, nil
}
