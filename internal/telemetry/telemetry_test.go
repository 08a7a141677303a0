package telemetry

import (
	"math"
	"slices"
	"testing"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// histogramSnapshot reads one histogram of reg the way /debug/vars serves it.
func histogramSnapshot(t *testing.T, reg *obs.Registry, id string) obs.HistogramValue {
	t.Helper()
	hv, ok := reg.Snapshot()[id].(obs.HistogramValue)
	if !ok {
		t.Fatalf("no histogram %s in the snapshot", id)
	}
	return hv
}

func TestHistogramWindowsAndQuantile(t *testing.T) {
	// Before: 10 obs <= 8, 20 obs total (<= 64). After: 30 <= 8, 60 <= 64,
	// 70 total <= 128 (le=128 first populated inside the window).
	before := obs.HistogramValue{Count: 20, Buckets: map[string]uint64{"8": 10, "64": 20}}
	after := obs.HistogramValue{Count: 70, Buckets: map[string]uint64{"8": 30, "64": 60, "128": 70}}

	// Deltas 20/40/50: le=128's baseline must inherit the lower buckets'
	// running before count (20), not zero.
	w, err := Window(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if w.Count != 50 {
		t.Fatalf("window count = %d, want 50", w.Count)
	}
	wantDeltas := []BucketDelta{{LE: 8, Count: 20}, {LE: 64, Count: 40}, {LE: 128, Count: 50}}
	if len(w.Buckets) != len(wantDeltas) {
		t.Fatalf("buckets = %+v, want %+v", w.Buckets, wantDeltas)
	}
	for i, wd := range wantDeltas {
		if w.Buckets[i] != wd {
			t.Fatalf("bucket %d = %+v, want %+v", i, w.Buckets[i], wd)
		}
	}

	// Quantiles: median rank 25 falls in (8, 64] with 20 in-bucket below
	// it of 20 → 8 + 56 * (25-20)/20 = 22.
	if got := w.Quantile(0.5); math.Abs(got-22) > 1e-9 {
		t.Fatalf("p50 = %g, want 22", got)
	}
	// p10 rank 5 inside the first bucket: 0 + 8 * 5/20 = 2.
	if got := w.Quantile(0.1); math.Abs(got-2) > 1e-9 {
		t.Fatalf("p10 = %g, want 2", got)
	}
	if got := w.Quantile(1); math.Abs(got-128) > 1e-9 {
		t.Fatalf("p100 = %g, want 128", got)
	}

	// From an empty snapshot the window covers everything: count 70.
	if all, err := Window(obs.HistogramValue{}, after); err != nil || all.Count != 70 {
		t.Fatalf("window from nothing = %+v, %v", all, err)
	}

	// Empty window: NaN quantile.
	empty := HistogramWindow{}
	if !math.IsNaN(empty.Quantile(0.5)) {
		t.Fatal("empty window quantile should be NaN")
	}

	// Overflow-bucket rank returns the highest finite bound.
	inf := HistogramWindow{Count: 10, Buckets: []BucketDelta{{LE: 4, Count: 5}, {LE: math.Inf(1), Count: 10}}}
	if got := inf.Quantile(0.99); got != 4 {
		t.Fatalf("overflow quantile = %g, want 4", got)
	}
}

// TestWindowExactDeltas holds Window to a histogram that saw only the
// window's observations: those made before the first snapshot are excluded,
// a bucket first populated inside the window counts from the running
// baseline below it, the +Inf overflow counts like any bound, and a series
// unchanged between the snapshots gains nothing, so loadgen drops it.
func TestWindowExactDeltas(t *testing.T) {
	reg, only := obs.NewRegistry(), obs.NewRegistry()
	reg.SetEnabled(true)
	only.SetEnabled(true)
	h, still := reg.Histogram("lat_ns"), reg.Histogram("idle_ns")
	for _, v := range []float64{3, 3, 100, 5000} { // before the window
		h.Observe(v)
	}
	still.Observe(7)
	before, stillBefore := histogramSnapshot(t, reg, "lat_ns"), histogramSnapshot(t, reg, "idle_ns")
	inWindow := []float64{3, 40, 100, 100, 1e15, 1e300} // 40 first populates le=64; the last two overflow
	for _, v := range inWindow {
		h.Observe(v)
		only.Histogram("lat_ns").Observe(v)
	}

	w, err := Window(before, histogramSnapshot(t, reg, "lat_ns"))
	if err != nil {
		t.Fatal(err)
	}
	want := []BucketDelta{{LE: 4, Count: 1}, {LE: 64, Count: 2}, {LE: 128, Count: 4}, {LE: 8192, Count: 4}, {LE: math.Inf(1), Count: 6}}
	if len(w.Buckets) != len(want) || w.Count != uint64(len(inWindow)) {
		t.Fatalf("window = %+v, want buckets %+v and count %d", w, want, len(inWindow))
	}
	for i := range want {
		if w.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, w.Buckets[i], want[i])
		}
	}
	// The same deltas, read off a histogram that only ever saw the window.
	fresh, err := Window(obs.HistogramValue{}, histogramSnapshot(t, only, "lat_ns"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range fresh.Buckets {
		if i := slices.IndexFunc(w.Buckets, func(d BucketDelta) bool { return d.LE == b.LE }); i < 0 || w.Buckets[i] != b {
			t.Fatalf("fresh histogram's bucket %+v is not in the window %+v", b, w.Buckets)
		}
	}

	idle, err := Window(stillBefore, histogramSnapshot(t, reg, "idle_ns"))
	if err != nil {
		t.Fatal(err)
	}
	if idle.Count != 0 || len(idle.Buckets) != 1 || idle.Buckets[0] != (BucketDelta{LE: 8}) {
		t.Fatalf("unchanged series window = %+v, want one empty bucket at le=8", idle)
	}

	for _, bad := range []string{"NaN", "eight", ""} {
		if _, err := Window(obs.HistogramValue{}, obs.HistogramValue{Buckets: map[string]uint64{bad: 1}}); err == nil {
			t.Errorf("bucket key %q accepted", bad)
		}
	}
}

func TestBuildProgress(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("campaign_tests_scheduled_total", "region", "us-west1").Add(100)
	reg.Counter("campaign_tests_completed_total", "region", "us-west1").Add(60)
	reg.Counter("campaign_tests_dropped_total", "region", "us-west1").Add(2)
	reg.Gauge("campaign_hours_total", "region", "us-west1").Set(24)
	reg.Gauge("campaign_hours_done", "region", "us-west1").Set(6)
	reg.Gauge("campaign_eta_seconds", "region", "us-west1").Set(90)
	reg.Gauge("campaign_breaker_state", "region", "us-west1").Set(2)
	reg.Gauge("campaign_phase_seconds_total", "region", "us-west1", "phase", "measure").Set(1.5)
	reg.Counter("campaign_tests_scheduled_total", "region", "eu-west4").Add(10)
	reg.Counter("unrelated_total").Add(5)

	got := BuildProgress(reg)
	if len(got.Regions) != 2 {
		t.Fatalf("regions = %d, want 2", len(got.Regions))
	}
	if got.Regions[0].Region != "eu-west4" || got.Regions[1].Region != "us-west1" {
		t.Fatalf("region order = %s, %s", got.Regions[0].Region, got.Regions[1].Region)
	}
	us := got.Regions[1]
	if us.Scheduled != 100 || us.Completed != 60 || us.Dropped != 2 {
		t.Fatalf("us-west1 counts = %+v", us)
	}
	if us.HoursTotal != 24 || us.HoursDone != 6 || us.ETASeconds != 90 {
		t.Fatalf("us-west1 progress = %+v", us)
	}
	if us.Breaker != "open" {
		t.Fatalf("breaker = %q, want open", us.Breaker)
	}
	if us.PhaseSecs["measure"] != 1.5 {
		t.Fatalf("phase seconds = %v", us.PhaseSecs)
	}
	if got.Regions[0].Breaker != "closed" {
		t.Fatalf("eu-west4 breaker = %q, want closed default", got.Regions[0].Breaker)
	}
	if len(got.Commands) != 0 {
		t.Fatalf("single-campaign snapshot grew a commands section: %+v", got.Commands)
	}
}

// TestBuildProgressCommands: command-labelled gauges (published by
// core.CommandScheduler for report all / costs) aggregate into the
// whole-command section, separate from and alongside the region series.
func TestBuildProgressCommands(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Gauge("command_campaigns_total", "command", "report-all").Set(9)
	reg.Gauge("command_campaigns_done", "command", "report-all").Set(3)
	reg.Gauge("command_hours_total", "command", "report-all").Set(432)
	reg.Gauge("command_hours_done", "command", "report-all").Set(150)
	reg.Gauge("command_eta_seconds", "command", "report-all").Set(42)
	reg.Gauge("command_campaigns_total", "command", "costs").Set(6)
	reg.Gauge("campaign_hours_total", "region", "us-west1").Set(48)

	got := BuildProgress(reg)
	if len(got.Commands) != 2 {
		t.Fatalf("commands = %+v, want costs and report-all", got.Commands)
	}
	if got.Commands[0].Command != "costs" || got.Commands[1].Command != "report-all" {
		t.Fatalf("command order = %s, %s", got.Commands[0].Command, got.Commands[1].Command)
	}
	ra := got.Commands[1]
	if ra.CampaignsTotal != 9 || ra.CampaignsDone != 3 || ra.HoursTotal != 432 || ra.HoursDone != 150 || ra.ETASeconds != 42 {
		t.Fatalf("report-all progress = %+v", ra)
	}
	// The region series still builds independently.
	if len(got.Regions) != 1 || got.Regions[0].HoursTotal != 48 {
		t.Fatalf("regions = %+v, want the one us-west1 entry", got.Regions)
	}
}
