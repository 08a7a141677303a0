package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// newStreamingCLASP builds an instance whose campaigns exceed the memory
// budget: the finished record log is spilled to disk.
func newStreamingCLASP(t *testing.T) *CLASP {
	t.Helper()
	c, err := New(Options{Seed: 3, Scale: 0.1, MaxMemoryMB: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamingCampaignIdentical pins the tentpole invariant: a campaign
// run over its memory budget — analyses reading a spilled log back through
// the cursor kernels — produces exactly the results of the unbudgeted one,
// whose analyses share views grouped once over a resident log.
func TestStreamingCampaignIdentical(t *testing.T) {
	mem := newCLASP(t)
	stream := newStreamingCLASP(t)

	resM, err := runTopology(mem, "us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	resS, err := runTopology(stream, "us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	defer resS.Close()

	if resM.Log.Spilled() {
		t.Fatal("unbudgeted campaign spilled its log")
	}
	if !resS.Log.Spilled() {
		t.Fatal("budgeted campaign kept its log resident (raise the campaign size or lower the budget)")
	}
	if got, want := resS.NumRecords(), resM.NumRecords(); got != want || got != resS.Report.Tests {
		t.Fatalf("budgeted campaign has %d records for %d tests, unbudgeted has %d", got, resS.Report.Tests, want)
	}
	// The budget is worth having only while the log it spills is small: at
	// least 4x under the in-memory struct.
	if perRecord := float64(resS.Log.CompressedBytes()) / float64(resS.Log.Len()); perRecord > analysis.MeasurementBytes/4 {
		t.Errorf("spilled record log takes %.1f bytes/record, want at most a quarter of the %d B struct", perRecord, analysis.MeasurementBytes)
	}
	if !reflect.DeepEqual(resS.FirstRecord(), resM.FirstRecord()) ||
		!reflect.DeepEqual(resS.LastRecord(), resM.LastRecord()) {
		t.Fatal("first/last record drifted across the budget")
	}

	// The full record sequence replays identically from the spilled and the
	// resident log.
	gotRecs, wantRecs := drainRecords(resS), drainRecords(resM)
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("spilled cursor yields %d records, resident %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
			t.Fatalf("record %d drifted:\n resident: %+v\n spilled:  %+v", i, wantRecs[i], gotRecs[i])
		}
	}

	// Every figure derived from the campaign is deeply equal.
	fig4M, err := Fig4(resM, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	fig4S, err := Fig4(resS, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig4M, fig4S) {
		t.Error("Fig4 differs between unbudgeted and budgeted campaigns")
	}
	if got, want := stream.Fig8(resS, bgp.Premium), mem.Fig8(resM, bgp.Premium); !reflect.DeepEqual(got, want) {
		t.Error("Fig8 differs between unbudgeted and budgeted campaigns")
	}
	fig2M := Fig2(map[string]*CampaignResult{"us-west1": resM}, nil, 1)
	fig2S := Fig2(map[string]*CampaignResult{"us-west1": resS}, nil, 3)
	if !reflect.DeepEqual(fig2M, fig2S) {
		t.Error("Fig2 differs between unbudgeted and budgeted campaigns")
	}
	fig3M, err := mem.Fig3(resM)
	if err != nil {
		t.Fatal(err)
	}
	fig3S, err := stream.Fig3(resS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig3M, fig3S) {
		t.Error("Fig3 differs between unbudgeted and budgeted campaigns")
	}
	hM := mem.ComputeHeadlines(map[string]*CampaignResult{"us-west1": resM}, nil)
	hS := stream.ComputeHeadlines(map[string]*CampaignResult{"us-west1": resS}, nil)
	if hM != hS {
		t.Errorf("headlines differ: mem %+v stream %+v", hM, hS)
	}

	// Close has nothing to release behind a resident log: it is a no-op and
	// cursors opened afterwards still replay every record.
	if err := resM.Close(); err != nil {
		t.Fatalf("Close on a resident result: %v", err)
	}
	if !reflect.DeepEqual(drainRecords(resM), wantRecs) {
		t.Error("resident result no longer replays its records after Close")
	}
}

// TestCampaignViewsGroupedOnce is SeriesAndPartitions' contract on both
// sides of the budget. A resident campaign groups each tier once: eight
// goroutines racing the first call (and reading the shared partitions) and
// two calls after them all get the same backing arrays. A spilled twin
// hands back fresh slices per call, and its answer equals the resident one
// on every series and on every partition's day split and tallies.
func TestCampaignViewsGroupedOnce(t *testing.T) {
	const region, days, minSamples = "europe-west1", 14, 4
	resident, _, err := runDifferential(newCLASP(t), region, days, 6)
	if err != nil {
		t.Fatal(err)
	}
	spilled, _, err := runDifferential(newStreamingCLASP(t), region, days, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	if resident.Log.Spilled() || !spilled.Log.Spilled() {
		t.Fatalf("spilled: resident %v, budgeted %v (resize the campaign)", resident.Log.Spilled(), spilled.Log.Spilled())
	}
	tiers := []bgp.Tier{bgp.Premium, bgp.Standard}

	type views struct {
		series []analysis.SeriesWithServer
		parts  []*congestion.Partition
	}
	const callers = 8
	got := make([][]views, callers+2)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for _, tier := range tiers {
				series, parts := resident.SeriesAndPartitions(tier)
				for _, p := range parts {
					p.HourTally(0.2, minSamples)
				}
				got[g] = append(got[g], views{series, parts})
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := callers; g < len(got); g++ {
		for _, tier := range tiers {
			series, parts := resident.SeriesAndPartitions(tier)
			got[g] = append(got[g], views{series, parts})
		}
	}

	for ti, tier := range tiers {
		first := got[0][ti]
		if len(first.series) == 0 || len(first.parts) != len(first.series) {
			t.Fatalf("%v: %d series, %d partitions", tier, len(first.series), len(first.parts))
		}
		for g := range got {
			v := got[g][ti]
			if &v.series[0] != &first.series[0] || &v.parts[0] != &first.parts[0] {
				t.Fatalf("%v: caller %d got a second grouping of a resident log", tier, g)
			}
		}

		series, parts := spilled.SeriesAndPartitions(tier)
		again, againParts := spilled.SeriesAndPartitions(tier)
		if &again[0] == &series[0] || &againParts[0] == &parts[0] {
			t.Fatalf("%v: a spilled log's views were memoised", tier)
		}
		if !reflect.DeepEqual(series, first.series) {
			t.Fatalf("%v: spilled series differ from the resident ones", tier)
		}
		for i, want := range first.parts {
			id := series[i].Series.PairID
			if !reflect.DeepEqual(parts[i].Days(), want.Days()) {
				t.Fatalf("%v partition %d (%s): day split differs", tier, i, id)
			}
			for _, h := range []float64{0.1, 0.2, 0.5} {
				gotC, gotN := parts[i].DayTally(h, minSamples)
				wantC, wantN := want.DayTally(h, minSamples)
				gotEv, gotHr := parts[i].HourTally(h, minSamples)
				wantEv, wantHr := want.HourTally(h, minSamples)
				if gotC != wantC || gotN != wantN || gotEv != wantEv || gotHr != wantHr {
					t.Fatalf("%v partition %d (%s) at h=%v: tallies (%d,%d,%d,%d) != (%d,%d,%d,%d)",
						tier, i, id, h, gotC, gotN, gotEv, gotHr, wantC, wantN, wantEv, wantHr)
				}
			}
		}
	}
}

// TestStreamingDifferentialIdentical covers the two-tier analysis path
// (tier deltas pair premium/standard records across the stream).
func TestStreamingDifferentialIdentical(t *testing.T) {
	mem := newCLASP(t)
	stream := newStreamingCLASP(t)

	resM, selM, err := runDifferential(mem, "europe-west1", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	resS, _, err := runDifferential(stream, "europe-west1", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer resS.Close()
	if !resS.Log.Spilled() {
		t.Fatal("budgeted differential campaign did not spill its log")
	}

	for _, metric := range []analysis.Metric{analysis.MetricDownload, analysis.MetricUpload, analysis.MetricLatency} {
		got := analysis.TierDeltasCursor(resS.Cursor(), resS.Region, metric)
		want := analysis.TierDeltasCursor(resM.Cursor(), resM.Region, metric)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("TierDeltas(%v) differs across the budget", metric)
		}
	}
	fig5M, err := Fig5(resM, selM)
	if err != nil {
		t.Fatal(err)
	}
	fig5S, err := Fig5(resS, selM)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig5M, fig5S) {
		t.Error("Fig5 differs between unbudgeted and budgeted campaigns")
	}
}

// TestRangeScanCountersAtAnyParallelism pins that splitting a log into
// block ranges changes no observable counter: one campaign's grouping and
// Fig. 4 read the same call, record and series counts at parallelism 1 and
// 4, with one analysis.group span per call that names its ranges — and at
// parallelism 1 there is one range and no parallel task at all.
func TestRangeScanCountersAtAnyParallelism(t *testing.T) {
	res, err := runTopology(newStreamingCLASP(t), "us-west1", 14)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if res.Log.SealedBlocks() < 4 {
		t.Fatalf("%d sealed blocks: too few for four ranges (lengthen the campaign)", res.Log.SealedBlocks())
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	counters := []string{"analysis_group_calls_total", "analysis_records_scanned_total", "analysis_series_grouped_total", "analysis_parallel_tasks_total"}
	read := func() []uint64 {
		out := make([]uint64, len(counters))
		for i, name := range counters {
			out[i] = obs.Default().Counter(name).Value()
		}
		return out
	}
	type scan struct {
		moved  []uint64 // per counter
		ranges []int    // per analysis.group span
		series []analysis.SeriesWithServer
		fig4   *Fig4Data
	}
	run := func(parallelism int) scan {
		r := &CampaignResult{Region: res.Region, Log: res.Log, Report: res.Report, Selected: res.Selected, parallelism: parallelism}
		var trace bytes.Buffer
		obs.SetTraceWriter(&trace)
		before := read()
		series, _ := r.SeriesAndPartitions(bgp.Premium)
		fig4, err := Fig4(r, bgp.Premium)
		after := read()
		obs.SetTraceWriter(nil)
		if err != nil {
			t.Fatal(err)
		}
		s := scan{series: series, fig4: fig4}
		for i := range after {
			s.moved = append(s.moved, after[i]-before[i])
		}
		for _, line := range strings.Split(strings.TrimSpace(trace.String()), "\n") {
			var ev struct {
				Span  string
				Attrs map[string]string
			}
			if err := json.Unmarshal([]byte(line), &ev); err != nil {
				t.Fatalf("span event %q: %v", line, err)
			}
			if ev.Span == "analysis.group" {
				n, _ := strconv.Atoi(ev.Attrs["ranges"])
				s.ranges = append(s.ranges, n)
			}
		}
		return s
	}
	one, four := run(1), run(4)
	for i, name := range counters[:3] {
		if one.moved[i] == 0 || one.moved[i] != four.moved[i] {
			t.Errorf("%s moved %d at parallelism 1 and %d at 4", name, one.moved[i], four.moved[i])
		}
	}
	if one.moved[3] != 0 || four.moved[3] == 0 {
		t.Errorf("analysis_parallel_tasks_total moved %d at parallelism 1 (want 0) and %d at 4 (want some)", one.moved[3], four.moved[3])
	}
	if !reflect.DeepEqual(one.ranges, []int{1}) || !reflect.DeepEqual(four.ranges, []int{4}) {
		t.Errorf("analysis.group spans: ranges %v at parallelism 1, %v at 4; want one span each, of 1 and 4 ranges", one.ranges, four.ranges)
	}
	if !reflect.DeepEqual(one.series, four.series) || !reflect.DeepEqual(one.fig4, four.fig4) {
		t.Error("grouping or Fig. 4 differ between parallelism 1 and 4")
	}
}
