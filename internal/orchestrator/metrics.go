package orchestrator

import (
	"time"

	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// campaignPhases are the labelled stages of one campaign Run whose
// wall-clock time is accrued into campaign_phase_seconds_total.
var campaignPhases = []string{"warm", "deploy", "measure", "emit", "traceroute"}

// campaignMetrics holds one region's campaign-progress series (see
// DESIGN.md §8). Registration is idempotent, so repeated campaigns in the
// same region accumulate into the same counters. obs series are no-ops on a
// nil receiver, so the zero value is usable: tests exercise orchestrator
// internals without constructing metrics.
type campaignMetrics struct {
	// Series with no Report field behind them, moved where the event occurs.
	scheduled *obs.Counter
	snapshots *obs.Counter
	phase     map[string]*obs.Gauge

	// Mirrors of Report fields (the resilience ones only move in
	// fault-injected campaigns): publish moves them by the report's delta
	// since the last committed round, so they cannot drift from it.
	completed       *obs.Counter
	captures        *obs.Counter
	traceroutes     *obs.Counter
	failed          *obs.Counter
	retried         *obs.Counter
	dropped         *obs.Counter
	preemptions     *obs.Counter
	vmCreateRetries *obs.Counter
	breakerOpen     *obs.Counter
	published       Report // the report as of the last publish
	breakerState    *obs.Gauge

	// Progress gauges published per hourly round so a live -debug-addr
	// introspection server can render a campaign's position and ETA.
	hoursTotal *obs.Gauge
	hoursDone  *obs.Gauge
	eta        *obs.Gauge
}

func newCampaignMetrics(region string) campaignMetrics {
	r := obs.Default()
	m := campaignMetrics{
		scheduled: r.Counter("campaign_tests_scheduled_total", "region", region),
		snapshots: r.Counter("campaign_someta_snapshots_total", "region", region),
		phase:     make(map[string]*obs.Gauge, len(campaignPhases)),

		completed:       r.Counter("campaign_tests_completed_total", "region", region),
		captures:        r.Counter("campaign_captures_total", "region", region),
		traceroutes:     r.Counter("campaign_traceroutes_total", "region", region),
		failed:          r.Counter("campaign_tests_failed_total", "region", region),
		retried:         r.Counter("campaign_tests_retried_total", "region", region),
		dropped:         r.Counter("campaign_tests_dropped_total", "region", region),
		preemptions:     r.Counter("campaign_vm_preemptions_total", "region", region),
		vmCreateRetries: r.Counter("campaign_vm_create_retries_total", "region", region),
		breakerOpen:     r.Counter("campaign_breaker_open_rounds_total", "region", region),
		breakerState:    r.Gauge("campaign_breaker_state", "region", region),

		hoursTotal: r.Gauge("campaign_hours_total", "region", region),
		hoursDone:  r.Gauge("campaign_hours_done", "region", region),
		eta:        r.Gauge("campaign_eta_seconds", "region", region),
	}
	for _, p := range campaignPhases {
		m.phase[p] = r.Gauge("campaign_phase_seconds_total", "region", region, "phase", p)
	}
	return m
}

// phaseDone accrues wall-clock seconds since start into one phase's gauge.
// The gauge is cumulative across hourly rounds (a per-phase stopwatch), so
// a campaign's final dump shows where its runtime went.
func (m *campaignMetrics) phaseDone(phase string, start time.Time) {
	m.phase[phase].Add(time.Since(start).Seconds())
}

// publish records one committed round: how many tests it scheduled, what it
// added to the report, and the breaker state it left (0 closed, 1 half-open,
// 2 open — the faults.BreakerState values).
func (m *campaignMetrics) publish(scheduled int, rep *Report, breaker faults.BreakerState) {
	was := &m.published
	m.scheduled.Add(uint64(scheduled))
	m.completed.Add(uint64(rep.Tests - was.Tests))
	m.captures.Add(uint64(rep.Captures - was.Captures))
	m.traceroutes.Add(uint64(rep.Traceroutes - was.Traceroutes))
	m.failed.Add(uint64(rep.Failed - was.Failed))
	m.retried.Add(uint64(rep.Retried - was.Retried))
	m.dropped.Add(uint64(rep.Dropped - was.Dropped))
	m.preemptions.Add(uint64(rep.Preemptions - was.Preemptions))
	m.vmCreateRetries.Add(uint64(rep.VMCreateRetries - was.VMCreateRetries))
	m.breakerOpen.Add(uint64(rep.BreakerOpenRounds - was.BreakerOpenRounds))
	m.published = *rep
	m.breakerState.Set(float64(breaker))
}

// setProgress publishes the campaign's position after `done` of `total`
// hourly rounds. The ETA extrapolates the wall clock elapsed since
// wallStart — simulated timestamps and measurement data never feed it, so
// the gauges are pure observers and cannot perturb campaign results.
func (m *campaignMetrics) setProgress(done, total int, wallStart time.Time) {
	m.hoursTotal.Set(float64(total))
	m.hoursDone.Set(float64(done))
	eta := 0.0
	if done > 0 && done < total {
		eta = time.Since(wallStart).Seconds() / float64(done) * float64(total-done)
	}
	m.eta.Set(eta)
}
