package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
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

	var resM, resS *CampaignResult
	var errM, errS error
	spillM := spilled(func() { resM, errM = runTopology(mem, "us-west1", 30) })
	spillS := spilled(func() { resS, errS = runTopology(stream, "us-west1", 30) })
	if err := errors.Join(errM, errS); err != nil {
		t.Fatal(err)
	}
	defer resS.Close()

	if spillM != 0 {
		t.Fatalf("unbudgeted campaign spilled %d bytes of its log", spillM)
	}
	if spillS != uint64(resS.Log.CompressedBytes()) {
		t.Fatalf("budgeted campaign spilled %d of its log's %d bytes (raise the campaign size or lower the budget)", spillS, resS.Log.CompressedBytes())
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

	// Close drops a resident result's views but leaves its log alone:
	// cursors opened afterwards still replay every record.
	if err := resM.Close(); err != nil {
		t.Fatalf("Close on a resident result: %v", err)
	}
	if !reflect.DeepEqual(drainRecords(resM), wantRecs) {
		t.Error("resident result no longer replays its records after Close")
	}
}

// spilled runs f with metrics on and returns how many record-log bytes it
// spilled to disk: the analysis_log_spilled_bytes_total a metrics dump
// exports.
func spilled(f func()) uint64 {
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	c := obs.Default().Counter("analysis_log_spilled_bytes_total")
	before := c.Value()
	f()
	return c.Value() - before
}

// TestCampaignViewsGroupedOnce is SeriesAndPartitions' contract under the
// view allowance, on three twins of one two-tier campaign. A resident log
// and a spilled log whose views the allowance admits each group a tier
// once: eight goroutines racing the first call (and reading the shared
// partitions) and two calls after them all get the same backing arrays,
// and the spilled log's analysis_group_calls_total moves once per tier. A
// spilled twin whose allowance is too small for its views hands back fresh
// slices on every call. All three answer alike on every series and on
// every partition's verdict and sweeps.
func TestCampaignViewsGroupedOnce(t *testing.T) {
	const region, days, minSamples = "europe-west1", 14, 4
	resident, _, err := runDifferential(newCLASP(t), region, days, 6)
	if err != nil {
		t.Fatal(err)
	}
	var admitted *CampaignResult
	n := spilled(func() { admitted, _, err = runDifferential(newStreamingCLASP(t), region, days, 6) })
	if err != nil {
		t.Fatal(err)
	}
	defer admitted.Close()
	if n == 0 {
		t.Fatal("the budgeted campaign kept its log resident (resize the campaign)")
	}
	refused := &CampaignResult{Region: admitted.Region, Log: admitted.Log, Report: admitted.Report, Selected: admitted.Selected,
		parallelism: admitted.parallelism, allowance: &viewAllowance{limit: 1}}
	tiers := []bgp.Tier{bgp.Premium, bgp.Standard}

	type views struct {
		series []analysis.SeriesWithServer
		parts  []*congestion.Partition
	}
	// calls returns, per caller and tier, what eight racing callers and two
	// later ones got from res.
	calls := func(res *CampaignResult) [][]views {
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
					series, parts := res.SeriesAndPartitions(tier)
					congestion.SweepHoursPartitioned(parts, []float64{0.2}, minSamples)
					got[g] = append(got[g], views{series, parts})
				}
			}()
		}
		close(start)
		wg.Wait()
		for g := callers; g < len(got); g++ {
			for _, tier := range tiers {
				series, parts := res.SeriesAndPartitions(tier)
				got[g] = append(got[g], views{series, parts})
			}
		}
		return got
	}
	groupCalls := obs.Default().Counter("analysis_group_calls_total")
	obs.SetEnabled(true)
	before := groupCalls.Value()
	shared := calls(admitted)
	moved := groupCalls.Value() - before
	obs.SetEnabled(false)
	if moved != uint64(len(tiers)) {
		t.Errorf("the admitted spilled log was grouped %d times for %d tiers", moved, len(tiers))
	}

	for name, got := range map[string][][]views{"resident": calls(resident), "admitted spilled": shared} {
		for ti, tier := range tiers {
			first := got[0][ti]
			if len(first.series) == 0 || len(first.parts) != len(first.series) {
				t.Fatalf("%s %v: %d series, %d partitions", name, tier, len(first.series), len(first.parts))
			}
			for g := range got {
				v := got[g][ti]
				if &v.series[0] != &first.series[0] || &v.parts[0] != &first.parts[0] {
					t.Fatalf("%s %v: caller %d got a second grouping", name, tier, g)
				}
			}
		}
	}

	for ti, tier := range tiers {
		want, wantParts := resident.SeriesAndPartitions(tier)
		series, parts := refused.SeriesAndPartitions(tier)
		again, againParts := refused.SeriesAndPartitions(tier)
		if &again[0] == &series[0] || &againParts[0] == &parts[0] {
			t.Fatalf("%v: views over the allowance were kept", tier)
		}
		for name, v := range map[string]views{"admitted spilled": shared[0][ti], "refused spilled": {series, parts}} {
			if !reflect.DeepEqual(v.series, want) {
				t.Fatalf("%s %v: series differ from the resident ones", name, tier)
			}
			for i, w := range wantParts {
				p, id := v.parts[i], v.series[i].Series.PairID
				if !reflect.DeepEqual(p.Verdict(0.5), w.Verdict(0.5)) {
					t.Fatalf("%s %v partition %d (%s): verdicts differ", name, tier, i, id)
				}
				hs, one, wantOne := []float64{0.1, 0.2, 0.5}, []*congestion.Partition{p}, []*congestion.Partition{w}
				if !reflect.DeepEqual(congestion.SweepDaysPartitioned(one, hs, minSamples), congestion.SweepDaysPartitioned(wantOne, hs, minSamples)) ||
					!reflect.DeepEqual(congestion.SweepHoursPartitioned(one, hs, minSamples), congestion.SweepHoursPartitioned(wantOne, hs, minSamples)) {
					t.Fatalf("%s %v partition %d (%s): sweeps differ", name, tier, i, id)
				}
			}
		}
	}
}

// TestCampaignViewsWithinAllowance renders Fig. 2, Fig. 8 and the headlines
// at once over spilled campaigns whose views do not all fit a 1 MB budget's
// allowance. The bytes held stay within the allowance, each held view's
// bytes recount from the log (a sample and its latency per Premium
// download) and its series, at least one view is refused and regrouped per
// call, the output equals the unbudgeted run's, and closing every result
// returns the allowance to empty.
func TestCampaignViewsWithinAllowance(t *testing.T) {
	regions := []string{"us-central1", "us-east1", "us-west1"}
	const days = 8
	type render struct {
		fig2     []Fig2Series
		fig8     [][]analysis.Fig8Row
		headline Headlines
	}
	run := func(c *CLASP) (render, map[string]*CampaignResult) {
		results := make(map[string]*CampaignResult)
		for _, region := range regions {
			res, err := runTopology(c, region, days)
			if err != nil {
				t.Fatal(err)
			}
			results[region] = res
		}
		out := render{fig8: make([][]analysis.Fig8Row, len(regions))}
		var wg sync.WaitGroup
		wg.Add(2 + len(regions))
		go func() { defer wg.Done(); out.fig2 = Fig2(results, nil, c.Opts.Parallelism) }()
		go func() { defer wg.Done(); out.headline = c.ComputeHeadlines(results, nil) }()
		for i, region := range regions {
			go func() { defer wg.Done(); out.fig8[i] = c.Fig8(results[region], bgp.Premium) }()
		}
		wg.Wait()
		return out, results
	}
	want, _ := run(newCLASP(t))
	budgeted, err := New(Options{Seed: 3, Scale: 0.1, Parallelism: 2, MaxMemoryMB: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	var got render
	var results map[string]*CampaignResult
	n := spilled(func() { got, results = run(budgeted) })
	logBytes := 0
	for _, res := range results {
		logBytes += res.Log.CompressedBytes()
	}
	if n != uint64(logBytes) {
		t.Fatalf("%d of the campaigns' %d log bytes spilled (lengthen the campaigns)", n, logBytes)
	}

	// Only Close releases a view, so the bytes held never fell while the
	// renderers ran: what is held now is the most held after any admission.
	a := budgeted.views
	if a.held > a.limit {
		t.Errorf("views hold %d bytes, over the %d-byte allowance", a.held, a.limit)
	}
	var held int64
	refused := 0
	for _, res := range results {
		tv := &res.views[bgp.Premium]
		v := tv.held
		if v == nil {
			refused++
			continue
		}
		held += tv.bytes
		// Recount the view: its samples and their latencies from the log's
		// Premium downloads, its Fig. 4 points from the log's records (a
		// topology campaign measures Premium only), the rest from the series
		// it holds.
		downloads := 0
		records := drainRecords(res)
		for _, m := range records {
			if m.Dir == netsim.Download && m.Tier == bgp.Premium {
				downloads++
			}
		}
		want := int64(downloads)*int64(unsafe.Sizeof(congestion.Sample{})+unsafe.Sizeof(float64(0))) +
			int64(len(analysis.PerfPointsCursor(analysis.NewSliceCursor(records))))*int64(unsafe.Sizeof(analysis.PerfPoint{}))
		for i, sw := range v.series {
			if len(sw.LatMs) != len(sw.Series.Samples) {
				t.Fatalf("%s: series %s holds %d latencies for %d samples", res.Region, sw.Series.PairID, len(sw.LatMs), len(sw.Series.Samples))
			}
			want += int64(unsafe.Sizeof(sw)+unsafe.Sizeof(v.parts[i])) + int64(len(sw.Series.PairID)) + v.parts[i].Bytes()
		}
		if tv.bytes != want {
			t.Errorf("%s: the view was admitted at %d bytes, recounted %d", res.Region, tv.bytes, want)
		}
	}
	if held != a.held {
		t.Errorf("results hold views of %d bytes, the allowance counts %d", held, a.held)
	}
	if refused == 0 {
		t.Errorf("all %d views fit the %d-byte allowance (lengthen the campaigns)", len(results), a.limit)
	}
	if refused == len(results) {
		t.Errorf("no view fits the %d-byte allowance (shorten the campaigns)", a.limit)
	}
	t.Logf("%d of %d views refused; %d of %d bytes held", refused, len(results), a.held, a.limit)
	if !reflect.DeepEqual(got, want) {
		t.Error("the budgeted render differs from the unbudgeted one")
	}
	for _, res := range results {
		if err := res.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if a.held != 0 {
		t.Errorf("%d view bytes still held after every result was closed", a.held)
	}
}

// TestCampaignViewsFig4MatchesRecords holds Fig. 4 and the headlines' p95
// share, both read from the held download views, to the perf points of
// the campaign's own records — analysis.PerfPointsCursor over the records
// of one tier (of every tier for the headline, as topology campaigns
// measure Premium only), itself held to the naive reference in
// internal/analysis. It does so on a resident log and on the same log
// spilled, each with its views held and refused, at parallelism 1, 2 and 4.
func TestCampaignViewsFig4MatchesRecords(t *testing.T) {
	c := newCLASP(t)
	diff, _, err := runDifferential(c, "europe-west1", 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := runTopology(c, "us-west1", 10)
	if err != nil {
		t.Fatal(err)
	}
	tiers := []bgp.Tier{bgp.Premium, bgp.Standard}
	var wantFig4 [2][]analysis.PerfPoint
	for _, tier := range tiers {
		var only []analysis.Measurement
		for _, m := range drainRecords(diff) {
			if m.Tier == tier {
				only = append(only, m)
			}
		}
		if wantFig4[tier] = analysis.PerfPointsCursor(analysis.NewSliceCursor(only)); len(wantFig4[tier]) == 0 {
			t.Fatalf("%v: no reference perf points", tier)
		}
	}
	in, points := 0, 0
	for _, p := range analysis.PerfPointsCursor(analysis.NewSliceCursor(drainRecords(topo))) {
		points++
		if p.P95Down >= 200 && p.P95Down <= 600 {
			in++
		}
	}
	wantP95 := float64(in) / float64(points)

	var first *Headlines
	check := func(logName string) {
		for _, parallelism := range []int{1, 2, 4} {
			for _, limit := range []int64{0, 1} { // no limit: held; one byte: refused
				label := fmt.Sprintf("%s log, parallelism %d, allowance %d", logName, parallelism, limit)
				twin := func(res *CampaignResult) *CampaignResult {
					return &CampaignResult{Region: res.Region, Log: res.Log, Report: res.Report, Selected: res.Selected,
						parallelism: parallelism, allowance: &viewAllowance{limit: limit}}
				}
				d := twin(diff)
				for _, tier := range tiers {
					fig4, err := Fig4(d, tier)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(fig4.Points, wantFig4[tier]) {
						t.Errorf("%s: Fig. 4 %v differs from the records' perf points", label, tier)
					}
					if held := d.views[tier].held != nil; held != (limit == 0) {
						t.Errorf("%s: %v view held = %v", label, tier, held)
					}
				}
				h := c.ComputeHeadlines(map[string]*CampaignResult{topo.Region: twin(topo)}, nil)
				if h.P95DownIn200600 != wantP95 {
					t.Errorf("%s: headline p95 share %v, want %v", label, h.P95DownIn200600, wantP95)
				}
				if first == nil {
					first = &h
				} else if h != *first {
					t.Errorf("%s: headlines %+v differ from %+v", label, h, *first)
				}
			}
		}
	}
	check("resident")
	for _, res := range []*CampaignResult{diff, topo} {
		if err := res.Log.Spill(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		defer res.Close()
	}
	check("spilled")
}

// TestCampaignPerfPointsHeld holds Fig. 4's points to their view. An
// admitted view builds its points once and shares them with eight racing
// callers, Fig. 4 and the headlines, and its bytes counted them up front
// (analysis.PerfPointCount is the points' number). A twin whose allowance
// refuses the view gives Fig. 4 and the headlines the same answers. Counted
// with analysis_group_calls_total, the racing callers group a held view
// once and Fig. 4 and the headlines not again, while they group a refused
// view once each.
func TestCampaignPerfPointsHeld(t *testing.T) {
	c := newCLASP(t)
	res, err := runTopology(c, "us-west1", 10)
	if err != nil {
		t.Fatal(err)
	}
	twin := func(limit int64) *CampaignResult {
		return &CampaignResult{Region: res.Region, Log: res.Log, Report: res.Report, Selected: res.Selected,
			parallelism: 2, allowance: &viewAllowance{limit: limit}}
	}
	groupCalls := obs.Default().Counter("analysis_group_calls_total")
	type render struct {
		fig4      *Fig4Data
		headlines Headlines
		groups    uint64
	}
	renders := func(r *CampaignResult) render {
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		before := groupCalls.Value()
		fig4, err := Fig4(r, bgp.Premium)
		if err != nil {
			t.Fatal(err)
		}
		h := c.ComputeHeadlines(map[string]*CampaignResult{r.Region: r}, nil)
		return render{fig4, h, groupCalls.Value() - before}
	}

	held := twin(0)
	var racing [8][]analysis.PerfPoint
	var wg sync.WaitGroup
	obs.SetEnabled(true)
	before := groupCalls.Value()
	for g := range racing {
		wg.Add(1)
		go func() { defer wg.Done(); racing[g] = held.view(bgp.Premium).perfPoints() }()
	}
	wg.Wait()
	racingGroups := groupCalls.Value() - before
	obs.SetEnabled(false)
	if racingGroups != 1 {
		t.Errorf("eight racing callers grouped an admitted view %d times", racingGroups)
	}
	got := renders(held)
	v := held.views[bgp.Premium].held
	if v == nil {
		t.Fatal("the view was refused without a limit")
	}
	want := analysis.PerfPointsOfSeries(v.series)
	if len(want) == 0 || !reflect.DeepEqual(got.fig4.Points, want) {
		t.Fatal("Fig. 4 over the held view differs from the series' points")
	}
	for g, pts := range racing {
		if &pts[0] != &got.fig4.Points[0] {
			t.Fatalf("racing caller %d got points of its own", g)
		}
	}
	if n := analysis.PerfPointCount(v.series); n != len(want) {
		t.Fatalf("PerfPointCount = %d, the view has %d points", n, len(want))
	}
	if got.groups != 0 {
		t.Errorf("Fig. 4 and the headlines grouped a held view %d times", got.groups)
	}

	refused := renders(twin(1))
	if !reflect.DeepEqual(refused.fig4, got.fig4) || refused.headlines != got.headlines {
		t.Error("Fig. 4 or the headlines over a refused view differ from the held view's")
	}
	if refused.groups != 2 {
		t.Errorf("Fig. 4 and the headlines grouped a refused view %d times, want once each", refused.groups)
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
	var resS *CampaignResult
	n := spilled(func() { resS, _, err = runDifferential(stream, "europe-west1", 14, 6) })
	if err != nil {
		t.Fatal(err)
	}
	defer resS.Close()
	if n == 0 {
		t.Fatal("budgeted differential campaign did not spill its log")
	}

	all := []analysis.Metric{analysis.MetricDownload, analysis.MetricUpload, analysis.MetricLatency}
	got := analysis.TierDeltasEach(resS.ranges(), resS.Region, all...)
	want := analysis.TierDeltasEach(resM.ranges(), resM.Region, all...)
	for _, metric := range all {
		if len(want[metric]) == 0 || !reflect.DeepEqual(got[metric], want[metric]) {
			t.Errorf("TierDeltas(%v) differs across the budget, or is empty", metric)
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
// block ranges changes no observable counter: one campaign's held Premium
// view, and Fig. 4 read from it, move the same call, record and series
// counts at parallelism 1 and 4, with one analysis.group span per view that
// names its ranges — and at parallelism 1 there is one range and no
// parallel task at all.
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
		r := &CampaignResult{Region: res.Region, Log: res.Log, Report: res.Report, Selected: res.Selected, parallelism: parallelism, allowance: &viewAllowance{}}
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
