// Package telemetry is the self-observation pipeline: it dogfoods the
// columnar tsdb as the history backend for the obs registry, turning the
// point-in-time metrics CLASP's subsystems already publish into queryable
// time series about the platform itself.
//
// The pieces compose rather than assume each other:
//
//   - StoreAppender adapts *tsdb.Store to obs.Appender, closing the loop
//     the import graph forbids obs from closing itself (tsdb instruments
//     its shards against obs, so obs cannot import tsdb).
//   - Pipeline bundles a dedicated self-telemetry store, a scraper feeding
//     it on a cadence, and age-based retention via Store.DropBefore.
//   - HTTPMetrics is hijack-safe handler middleware recording per-route /
//     per-status request-duration histograms (speedtestd's serving path).
//   - HistoryHandler serves windowed JSON queries over the self-store
//     (/debug/obs/history); ProgressHandler renders the orchestrator's
//     campaign gauges as a live progress document (/progress).
//   - Introspection wires all of it plus net/http/pprof onto a mux, and
//     StartDebug serves that mux on a side listener (clasp -debug-addr).
//   - WindowsFromSeries / LogBucketQuantile recover latency percentiles
//     from scraped cumulative bucket series — the shape loadgen consumes.
//
// Nothing here feeds back into measurement arithmetic: scrapes read the
// registry through Registry.Samples (lock-free for updaters) and write to a
// store campaigns never query, preserving the bit-identical-results
// invariant pinned by TestMetricsDoNotChangeResults.
package telemetry

import (
	"log"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// StoreAppender adapts a tsdb.Store to the obs.Appender interface the
// scraper writes through.
type StoreAppender struct {
	Store *tsdb.Store
}

// Append inserts one scraped point.
func (a StoreAppender) Append(measurement string, tags map[string]string, at time.Time, fields map[string]float64) error {
	return a.Store.Insert(measurement, tsdb.Tags(tags), at, fields)
}

// PipelineConfig configures a self-telemetry Pipeline.
type PipelineConfig struct {
	// Registry to scrape. Defaults to obs.Default().
	Registry *obs.Registry
	// Interval between scrapes. Defaults to 5s.
	Interval time.Duration
	// Retention drops self-store history older than this on every cycle;
	// 0 keeps everything (short runs, tests).
	Retention time.Duration
	// Now is the clock, injectable for tests. Defaults to time.Now.
	Now func() time.Time
}

// Pipeline owns a dedicated self-telemetry store and the scraper feeding
// it. The store is separate from any campaign store on purpose: campaign
// analysis never sees telemetry series, and sealing/retention policies can
// differ.
type Pipeline struct {
	Store   *tsdb.Store
	Scraper *obs.Scraper

	interval  time.Duration
	retention time.Duration
	now       func() time.Time

	startOnce sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewPipeline builds the pipeline; call Start to begin scraping on the
// cadence, or drive Cycle directly for deterministic tests.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Registry == nil {
		cfg.Registry = obs.Default()
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	store := tsdb.NewStore()
	return &Pipeline{
		Store:     store,
		Scraper:   obs.NewScraper(cfg.Registry, StoreAppender{Store: store}, obs.ScrapeConfig{Now: cfg.Now}),
		interval:  cfg.Interval,
		retention: cfg.Retention,
		now:       cfg.Now,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
}

// Cycle runs one scrape pass followed by retention enforcement.
func (p *Pipeline) Cycle() error {
	err := p.Scraper.ScrapeOnce()
	if p.retention > 0 {
		p.Store.DropBefore(p.now().Add(-p.retention))
	}
	return err
}

// Start launches the background scrape/retention loop. Subsequent calls
// no-op; Stop terminates it.
func (p *Pipeline) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			t := time.NewTicker(p.interval)
			defer t.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-t.C:
					if err := p.Cycle(); err != nil {
						log.Printf("telemetry: %v", err) // the pass went on past the bad series
					}
				}
			}
		}()
	})
}

// Stop terminates a Start-ed loop and waits for it. Safe without Start and
// safe to call twice.
func (p *Pipeline) Stop() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	p.startOnce.Do(func() { close(p.done) })
	<-p.done
}
