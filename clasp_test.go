package clasp

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/obs"
)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	p, err := New(Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runTopology plans and runs one topology campaign on eng, as the
// quickstart does.
func runTopology(eng *core.CLASP, region string, days int) (*CampaignResult, error) {
	plan, err := eng.PlanTopologyCampaign(region, days)
	if err != nil {
		return nil, err
	}
	return eng.RunPlanned(plan)
}

func TestNewDefaults(t *testing.T) {
	p, err := New(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() == nil {
		t.Fatal("engine missing")
	}
	regions := p.Regions()
	if len(regions) != 7 {
		t.Errorf("regions = %v", regions)
	}
}

func TestTopologyCampaignAndCongestionReport(t *testing.T) {
	p := newPlatform(t)
	res, err := runTopology(p.Engine(), "us-west1", 20)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := p.CongestionReport(res)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Region != "us-west1" {
		t.Errorf("region = %q", rep.Region)
	}
	if rep.HourFraction < 0 || rep.HourFraction > 0.2 {
		t.Errorf("hour fraction = %v", rep.HourFraction)
	}
	if rep.DayFraction <= 0 || rep.DayFraction > 0.7 {
		t.Errorf("day fraction = %v", rep.DayFraction)
	}
	if len(rep.Pairs) == 0 {
		t.Fatal("no pairs in report")
	}
	// Sorted by events descending.
	for i := 1; i < len(rep.Pairs); i++ {
		if rep.Pairs[i].Events > rep.Pairs[i-1].Events {
			t.Error("pairs not sorted by events")
			break
		}
	}
	for _, pair := range rep.Pairs {
		if pair.CongestedDays > pair.Days {
			t.Errorf("pair %s: congested days exceed days", pair.PairID)
		}
		if pair.Events == 0 && pair.PeakHourLocal != -1 {
			t.Errorf("pair %s: peak hour without events", pair.PairID)
		}
	}
	var buf bytes.Buffer
	WriteReport(&buf, rep)
	if !strings.Contains(buf.String(), "Congestion report for us-west1") {
		t.Error("report rendering broken")
	}
}

// TestCampaignViewsOneLogPass renders everything that reads a campaign's
// Premium download view — the congestion report and Fig. 2, 4, 6 and 8 —
// twice over one held view: in all, the log is grouped once and each of its
// records scanned once.
func TestCampaignViewsOneLogPass(t *testing.T) {
	p := newPlatform(t)
	eng := p.Engine()
	res, err := runTopology(eng, "us-west1", 10)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	calls := obs.Default().Counter("analysis_group_calls_total")
	scanned := obs.Default().Counter("analysis_records_scanned_total")
	calls0, scanned0 := calls.Value(), scanned.Value()
	for range 2 {
		if _, err := p.CongestionReport(res); err != nil {
			t.Fatal(err)
		}
		core.Fig2(map[string]*CampaignResult{res.Region: res}, nil, eng.Opts.Parallelism)
		if _, err := core.Fig4(res, bgp.Premium); err != nil {
			t.Fatal(err)
		}
		eng.Fig6(res, bgp.Premium, 5)
		eng.Fig8(res, bgp.Premium)
	}
	if got := calls.Value() - calls0; got != 1 {
		t.Errorf("the renders grouped the log %d times, want once", got)
	}
	if got, want := scanned.Value()-scanned0, uint64(res.NumRecords()); got != want {
		t.Errorf("the renders scanned %d records of a %d-record log, want each once", got, want)
	}
}

// TestFig5OneLogPass: Fig. 5's three metrics come from one pass over the
// differential campaign's log — download and latency ride on the same
// download tests — so a render scans each record once, not once per metric.
func TestFig5OneLogPass(t *testing.T) {
	eng := newPlatform(t).Engine()
	plan, err := eng.PlanDifferentialCampaign("europe-west1", 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunPlanned(plan)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := eng.SelectDifferentialServers("europe-west1", 6)
	if err != nil {
		t.Fatal(err)
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	scanned := obs.Default().Counter("analysis_records_scanned_total")
	scanned0 := scanned.Value()
	s, err := core.Fig5(res, sel)
	if err != nil {
		t.Fatal(err)
	}
	core.WriteFig5(&bytes.Buffer{}, s)
	if got, want := scanned.Value()-scanned0, uint64(res.NumRecords()); got != want {
		t.Errorf("Fig. 5 scanned %d records of a %d-record log, want each once", got, want)
	}
}

func TestDifferentialCampaignAndTierComparison(t *testing.T) {
	p := newPlatform(t)
	plan, err := p.Engine().PlanDifferentialCampaign("europe-west1", 7, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Engine().RunPlanned(plan)
	if err != nil {
		t.Fatal(err)
	}
	cmp, err := p.CompareTiers(res)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.PairedTests == 0 {
		t.Fatal("no paired tests")
	}
	// §4.1: standard tier generally higher throughput.
	if cmp.StdFasterDownload < 0.5 {
		t.Errorf("standard faster in %.0f%% of downloads", cmp.StdFasterDownload*100)
	}
	if cmp.MedianDownloadDelta > 0 {
		t.Errorf("median delta %+.2f, want negative (standard higher)", cmp.MedianDownloadDelta)
	}
	if cmp.Within50 < 0.5 {
		t.Errorf("within-50%% fraction = %.2f", cmp.Within50)
	}
}

func TestCompareTiersErrors(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CompareTiers(nil); err == nil {
		t.Error("nil result accepted")
	}
	res, err := runTopology(p.Engine(), "us-east1", 1)
	if err != nil {
		t.Fatal(err)
	}
	// A topology campaign has no standard-tier measurements.
	if _, err := p.CompareTiers(res); err == nil {
		t.Error("single-tier campaign compared")
	}
}

func TestCongestionReportErrors(t *testing.T) {
	p := newPlatform(t)
	if _, err := p.CongestionReport(nil); err == nil {
		t.Error("nil result accepted")
	}
	if _, err := p.CongestionReport(&CampaignResult{Log: analysis.NewRecordLog()}); err == nil {
		t.Error("empty result accepted")
	}
}

func TestCostsAccrue(t *testing.T) {
	p := newPlatform(t)
	if _, err := runTopology(p.Engine(), "us-central1", 2); err != nil {
		t.Fatal(err)
	}
	egress, _, compute := p.Costs()
	if egress <= 0 || compute <= 0 {
		t.Errorf("costs = %v/%v", egress, compute)
	}
}

// TestSortPairsMatchesInsertionSort holds sortPairs to the insertion sort it
// replaced — events descending, then pair ID ascending — on shuffled pairs
// whose events tie in runs and whose IDs sort differently as text and as
// numbers.
func TestSortPairsMatchesInsertionSort(t *testing.T) {
	reference := func(pairs []PairSummary) {
		for i := 1; i < len(pairs); i++ {
			for j := i; j > 0 && (pairs[j].Events > pairs[j-1].Events ||
				(pairs[j].Events == pairs[j-1].Events && pairs[j].PairID < pairs[j-1].PairID)); j-- {
				pairs[j], pairs[j-1] = pairs[j-1], pairs[j]
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{0, 1, 2, 17, 400} {
		pairs := make([]PairSummary, n)
		for i := range pairs {
			pairs[i] = PairSummary{
				PairID:        fmt.Sprintf("us-west1/%d/premium/download", i),
				Days:          i % 9,
				Events:        rng.Intn(4),
				PeakHourLocal: rng.Intn(25) - 1,
			}
		}
		rng.Shuffle(n, func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		want := append(pairs[:0:0], pairs...)
		reference(want)
		sortPairs(pairs)
		if !reflect.DeepEqual(pairs, want) {
			t.Fatalf("%d pairs: sortPairs differs from the insertion sort", n)
		}
	}
}
