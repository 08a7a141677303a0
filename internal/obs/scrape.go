package obs

import (
	"fmt"
	"sync"
	"time"
)

// Appender is the sink a Scraper writes into. It is satisfied by
// telemetry.StoreAppender (backed by tsdb.Store.Insert); obs cannot import
// tsdb directly because tsdb instruments itself against this package.
type Appender interface {
	Append(measurement string, tags map[string]string, at time.Time, fields map[string]float64) error
}

// ScrapeConfig configures a Scraper.
type ScrapeConfig struct {
	// Now supplies timestamps; tests inject a fake clock for deterministic
	// series contents. Defaults to time.Now.
	Now func() time.Time
}

// ScrapeStats summarises a Scraper's activity so far.
type ScrapeStats struct {
	Scrapes uint64    // completed ScrapeOnce passes
	Samples uint64    // points appended across all passes
	Errors  uint64    // append errors (scrape continues past them)
	Last    time.Time // timestamp of the most recent pass
}

// Scraper samples a Registry each time ScrapeOnce is called (the cadence is
// its owner's: telemetry.Pipeline runs the one scrape loop) and appends the
// readings to an Appender, turning point-in-time metrics into history:
//
//   - counters become points {value, rate} where rate is the per-second
//     delta since the previous scrape (0 on the first pass);
//   - gauges become points {value};
//   - histograms become a family point {count, sum, rate} (rate is the
//     per-second observation rate) plus one point per populated bucket on
//     the "<name>_bucket" measurement, tagged le=<bound>, with the
//     cumulative count in field "cum" — the shape
//     telemetry.LogBucketQuantile consumes for windowed percentiles.
//
// Metric labels become tsdb tags verbatim. All methods are safe for
// concurrent use; the scrape itself reads the registry through
// Registry.Samples, so it never blocks metric updates.
type Scraper struct {
	r   *Registry
	app Appender
	cfg ScrapeConfig

	mu        sync.Mutex
	prevCount map[string]uint64 // series id -> counter value / histogram count
	prevAt    time.Time
	stats     ScrapeStats
}

// NewScraper creates a scraper over r feeding app. Defaults are applied for
// zero ScrapeConfig fields.
func NewScraper(r *Registry, app Appender, cfg ScrapeConfig) *Scraper {
	if r == nil {
		panic("obs: NewScraper with nil registry")
	}
	if app == nil {
		panic("obs: NewScraper with nil appender")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return &Scraper{
		r:         r,
		app:       app,
		cfg:       cfg,
		prevCount: make(map[string]uint64),
	}
}

// ScrapeOnce performs one scrape pass at the clock's current time. It
// returns the first append error encountered, after attempting every
// series — one bad series does not hide the rest of the pass.
func (s *Scraper) ScrapeOnce() error {
	samples := s.r.Samples()
	at := s.cfg.Now()

	s.mu.Lock()
	defer s.mu.Unlock()
	var dt float64 // seconds since previous pass; 0 on the first
	if !s.prevAt.IsZero() {
		dt = at.Sub(s.prevAt).Seconds()
	}

	var firstErr error
	appended := uint64(0)
	record := func(measurement string, tags map[string]string, fields map[string]float64) {
		if err := s.app.Append(measurement, tags, at, fields); err != nil {
			s.stats.Errors++
			if firstErr == nil {
				firstErr = fmt.Errorf("obs: scrape %s: %w", measurement, err)
			}
			return
		}
		appended++
	}

	for _, m := range samples {
		tags := labelTags(m.Labels)
		switch m.Kind {
		case KindCounter:
			record(m.Name, tags, map[string]float64{
				"value": float64(m.Counter),
				"rate":  deltaRate(s.prevCount, m.ID, m.Counter, dt),
			})
		case KindGauge:
			record(m.Name, tags, map[string]float64{"value": m.Value})
		case KindHistogram:
			record(m.Name, tags, map[string]float64{
				"count": float64(m.Count),
				"sum":   m.Sum,
				"rate":  deltaRate(s.prevCount, m.ID, m.Count, dt),
			})
			for _, b := range m.Buckets {
				bt := make(map[string]string, len(tags)+1)
				for k, v := range tags {
					bt[k] = v
				}
				bt["le"] = formatBound(b.LE)
				record(m.Name+"_bucket", bt, map[string]float64{"cum": float64(b.Cum)})
			}
		}
	}

	s.prevAt = at
	s.stats.Scrapes++
	s.stats.Samples += appended
	s.stats.Last = at
	return firstErr
}

// deltaRate updates prev[id] to cur and returns the per-second rate over
// dt seconds (0 when dt is 0, i.e. the first pass, or on counter reset).
func deltaRate(prev map[string]uint64, id string, cur uint64, dt float64) float64 {
	old, seen := prev[id]
	prev[id] = cur
	if !seen || dt <= 0 || cur < old {
		return 0
	}
	return float64(cur-old) / dt
}

// labelTags converts sorted alternating key/value label pairs to a tag map.
func labelTags(pairs []string) map[string]string {
	if len(pairs) == 0 {
		return nil
	}
	t := make(map[string]string, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		t[pairs[i]] = pairs[i+1]
	}
	return t
}

// Stats returns a copy of the scraper's counters.
func (s *Scraper) Stats() ScrapeStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}
