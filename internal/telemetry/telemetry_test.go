package telemetry

import (
	"math"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// TestPipelineDeterministicSelfStore pins the exact self-store contents
// after two scrape cycles under a fake clock: the satellite-required
// deterministic scraper test, at the pipeline level where the real tsdb
// store is the sink.
func TestPipelineDeterministicSelfStore(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	c := reg.Counter("serve_total", "route", "/metrics")
	h := reg.Histogram("serve_ns", "route", "/metrics")

	now := time.Unix(2000, 0).UTC()
	p := NewPipeline(PipelineConfig{Registry: reg, Now: func() time.Time { return now }})

	c.Add(4)
	h.Observe(3) // le=4
	if err := p.Cycle(); err != nil {
		t.Fatalf("cycle 1: %v", err)
	}
	now = now.Add(5 * time.Second)
	c.Add(6) // 6 over 5s = 1.2/s
	h.Observe(100)
	h.Observe(90) // both le=128
	if err := p.Cycle(); err != nil {
		t.Fatalf("cycle 2: %v", err)
	}

	// Counter series: {value, rate} at both instants.
	got := p.Store.Query("serve_total", nil, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Fatalf("serve_total series = %d, want 1", len(got))
	}
	wantPoints := []struct {
		sec   int64
		value float64
		rate  float64
	}{{2000, 4, 0}, {2005, 10, 1.2}}
	if len(got[0].Points) != len(wantPoints) {
		t.Fatalf("serve_total points = %d, want %d", len(got[0].Points), len(wantPoints))
	}
	if got[0].Tags["route"] != "/metrics" {
		t.Fatalf("serve_total tags = %v", got[0].Tags)
	}
	for i, w := range wantPoints {
		pt := got[0].Points[i]
		if pt.Time.Unix() != w.sec || pt.Fields["value"] != w.value || pt.Fields["rate"] != w.rate {
			t.Fatalf("serve_total point %d = %v %v, want t=%d value=%g rate=%g", i, pt.Time.Unix(), pt.Fields, w.sec, w.value, w.rate)
		}
	}

	// Histogram family series: count/sum/rate.
	fam := p.Store.Query("serve_ns", nil, time.Time{}, time.Time{})
	if len(fam) != 1 || len(fam[0].Points) != 2 {
		t.Fatalf("serve_ns series/points = %d", len(fam))
	}
	p1, p2 := fam[0].Points[0], fam[0].Points[1]
	if p1.Fields["count"] != 1 || p1.Fields["sum"] != 3 || p1.Fields["rate"] != 0 {
		t.Fatalf("serve_ns point 1 = %v", p1.Fields)
	}
	if p2.Fields["count"] != 3 || p2.Fields["sum"] != 193 || p2.Fields["rate"] != 0.4 {
		t.Fatalf("serve_ns point 2 = %v", p2.Fields)
	}

	// Bucket series: le=4 both cycles, le=128 only the second.
	buckets := p.Store.Query("serve_ns_bucket", nil, time.Time{}, time.Time{})
	if len(buckets) != 2 {
		t.Fatalf("serve_ns_bucket series = %d, want 2 (le=4, le=128)", len(buckets))
	}
	for _, sr := range buckets {
		switch sr.Tags["le"] {
		case "4":
			if len(sr.Points) != 2 || sr.Points[0].Fields["cum"] != 1 || sr.Points[1].Fields["cum"] != 1 {
				t.Fatalf("le=4 points = %+v", sr.Points)
			}
		case "128":
			if len(sr.Points) != 1 || sr.Points[0].Fields["cum"] != 3 {
				t.Fatalf("le=128 points = %+v", sr.Points)
			}
		default:
			t.Fatalf("unexpected bucket le=%q", sr.Tags["le"])
		}
		if sr.Tags["route"] != "/metrics" {
			t.Fatalf("bucket tags = %v", sr.Tags)
		}
	}
}

func TestPipelineRetention(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	c := reg.Counter("old_total")

	now := time.Unix(5000, 0).UTC()
	p := NewPipeline(PipelineConfig{Registry: reg, Retention: 10 * time.Second, Now: func() time.Time { return now }})
	for i := 0; i < 5; i++ {
		c.Inc()
		if err := p.Cycle(); err != nil {
			t.Fatal(err)
		}
		now = now.Add(5 * time.Second)
	}
	// Cycles at t=5000..5020; final retention pass ran at t=5020 with
	// cutoff 5010, so points at 5000 and 5005 must be gone.
	got := p.Store.Query("old_total", nil, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Fatalf("series = %d, want 1", len(got))
	}
	if len(got[0].Points) != 3 {
		t.Fatalf("points after retention = %d, want 3", len(got[0].Points))
	}
	if first := got[0].Points[0].Time.Unix(); first != 5010 {
		t.Fatalf("oldest surviving point at %d, want 5010", first)
	}
}

func TestHistogramWindowsAndQuantile(t *testing.T) {
	st := tsdb.NewStore()
	ins := func(le string, sec int64, cum float64) {
		st.Insert("lat_ns_bucket", tsdb.Tags{"route": "/x", "le": le}, time.Unix(sec, 0).UTC(), map[string]float64{"cum": cum})
	}
	// t=100: 10 obs <= 8, 20 obs total (<= 64).
	ins("8", 100, 10)
	ins("64", 100, 20)
	// t=200: 30 <= 8, 60 <= 64, 70 total <= 128 (le=128 first appears here).
	ins("8", 200, 30)
	ins("64", 200, 60)
	ins("128", 200, 70)

	// Window (100, 200]: deltas 20/40/50 — le=128's baseline must inherit
	// the lower buckets' running start (20), not zero.
	windows := func(from, to time.Time) []HistogramWindow {
		var end time.Time
		if !to.IsZero() {
			end = to.Add(time.Nanosecond) // Query's upper bound is exclusive
		}
		return WindowsFromSeries(st.Query("lat_ns_bucket", nil, time.Time{}, end), from, to)
	}
	ws := windows(time.Unix(150, 0), time.Unix(200, 0))
	if len(ws) != 1 {
		t.Fatalf("windows = %d, want 1", len(ws))
	}
	w := ws[0]
	if w.Tags["route"] != "/x" {
		t.Fatalf("window tags = %v", w.Tags)
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

	// Unbounded window covers everything: count 70.
	all := windows(time.Time{}, time.Time{})
	if len(all) != 1 || all[0].Count != 70 {
		t.Fatalf("unbounded window = %+v", all)
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

func TestDropBeforeKeepsHandles(t *testing.T) {
	st := tsdb.NewStore()
	h := st.Bind(tsdb.Tags{"k": "v"}, "f")
	for i := int64(0); i < 10; i++ {
		h.Insert(time.Unix(i, 0).UTC(), float64(i))
	}
	if n := st.DropBefore(time.Unix(5, 0).UTC()); n != 5 {
		t.Fatalf("dropped %d, want 5", n)
	}
	// The handle keeps working after retention emptied part of its series.
	h.Insert(time.Unix(20, 0).UTC(), 20)
	got := st.Query("speedtest", nil, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 6 {
		t.Fatalf("after drop: %+v", got)
	}
	if got[0].Points[0].Time.Unix() != 5 {
		t.Fatalf("oldest = %d, want 5", got[0].Points[0].Time.Unix())
	}

	// Drop everything — the series survives as an empty shell.
	st.DropBefore(time.Unix(100, 0).UTC())
	if got := st.Query("speedtest", nil, time.Time{}, time.Time{}); len(got) != 0 {
		t.Fatalf("expected no queryable points, got %+v", got)
	}
	h.Insert(time.Unix(200, 0).UTC(), 1)
	if got := st.Query("speedtest", nil, time.Time{}, time.Time{}); len(got) != 1 || len(got[0].Points) != 1 {
		t.Fatalf("handle insert after full drop lost: %+v", got)
	}
}

func TestParseHistoryTime(t *testing.T) {
	if got, err := parseHistoryTime(""); err != nil || !got.IsZero() {
		t.Fatalf("empty = %v, %v", got, err)
	}
	if got, err := parseHistoryTime("2026-08-08T10:00:00Z"); err != nil || got.Unix() != 1786183200 {
		t.Fatalf("rfc3339 = %v (%d), %v", got, got.Unix(), err)
	}
	if got, err := parseHistoryTime("12345"); err != nil || got.Unix() != 12345 {
		t.Fatalf("unix = %v, %v", got, err)
	}
	if _, err := parseHistoryTime("yesterday"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestPipelineStartStop(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("tick_total").Inc()
	p := NewPipeline(PipelineConfig{Registry: reg, Interval: time.Millisecond})
	p.Start()
	deadline := time.Now().Add(5 * time.Second)
	for len(p.Store.Query("tick_total", nil, time.Time{}, time.Time{})) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never scraped")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	p.Stop()
	if got := p.Store.Query("tick_total", nil, time.Time{}, time.Time{}); len(got) != 1 {
		t.Fatalf("self-store series = %d, want 1", len(got))
	}
}

func TestStoreAppenderRejectsBadIdent(t *testing.T) {
	st := tsdb.NewStore()
	app := StoreAppender{Store: st}
	err := app.Append("bad measurement", nil, time.Unix(0, 0), map[string]float64{"f": 1})
	if err == nil {
		t.Fatal("space in measurement accepted")
	}
	if err := app.Append("ok", map[string]string{"le": "+Inf"}, time.Unix(0, 0), map[string]float64{"f": 1}); err != nil {
		t.Fatalf("+Inf tag value rejected: %v", err)
	}
}
