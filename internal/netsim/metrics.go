package netsim

import (
	"sync/atomic"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// Simulator telemetry (see DESIGN.md §8). The flow-cache counters are
// plain atomic adds; the Measure latency histogram is sampled so the two
// time.Now calls it needs are amortised — with metrics enabled, the warm
// Measure path stays within the 5% overhead budget recorded in
// BENCH_hotpath.json, and with metrics disabled every update is a single
// atomic load (0 allocs/op, pinned in internal/obs).
var (
	obsFlowHits       = obs.Default().Counter("netsim_flowcache_hits_total")
	obsFlowMisses     = obs.Default().Counter("netsim_flowcache_misses_total")
	obsMeasureLat     = obs.Default().Histogram("netsim_measure_latency_ns")
	obsInjectedFaults = obs.Default().Counter("netsim_injected_faults_total")

	measureSampleN atomic.Uint64
)

// measureSampleEvery is the latency-histogram sampling stride: one in every
// 16 Measure or MeasureFlow calls is timed, lookup included. Amortised, the
// two time.Now calls cost ~3 ns a test; the histogram still sees thousands
// of samples per campaign-day.
const measureSampleEvery = 16

// measureTimer times one sampled Measure call; the zero value, which the
// unsampled calls get, observes nothing.
type measureTimer struct{ start time.Time }

// startMeasureTimer starts a timer on every measureSampleEvery-th call while
// metrics are enabled.
func startMeasureTimer() measureTimer {
	if !obs.Enabled() || measureSampleN.Add(1)%measureSampleEvery != 0 {
		return measureTimer{}
	}
	return measureTimer{start: time.Now()}
}

func (t measureTimer) observe() {
	if !t.start.IsZero() {
		obsMeasureLat.Observe(float64(time.Since(t.start)))
	}
}
