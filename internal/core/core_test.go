package core

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/selection"
)

// newCLASP builds a small-scale instance shared across subtests.
func newCLASP(t *testing.T) *CLASP {
	t.Helper()
	c, err := New(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// drainRecords flattens a campaign's cursor into one slice — the form the
// record-equality assertions compare (batch boundaries are not part of the
// contract, the sequence is).
func drainRecords(res *CampaignResult) []analysis.Measurement {
	out := make([]analysis.Measurement, 0, res.NumRecords())
	c := res.Cursor()
	for b := c.Next(); b != nil; b = c.Next() {
		out = append(out, b...)
	}
	return out
}

func TestNewDefaults(t *testing.T) {
	c, err := New(Options{Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Opts.Seed == 0 {
		t.Error("seed not defaulted")
	}
	if c.Topo == nil || c.Sim == nil || c.Bucket == nil || c.Store == nil {
		t.Error("components missing")
	}
}

func TestSelectTopologyServersBudgets(t *testing.T) {
	c := newCLASP(t)
	sel, err := c.SelectTopologyServers("us-west2")
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Selected) > RegionBudgets["us-west2"] {
		t.Errorf("budget exceeded: %d > %d", len(sel.Selected), RegionBudgets["us-west2"])
	}
	selFree, err := c.SelectTopologyServers("us-east1")
	if err != nil {
		t.Fatal(err)
	}
	if len(selFree.Selected) == 0 {
		t.Fatal("nothing selected in unbudgeted region")
	}
}

func TestTable1Shape(t *testing.T) {
	c := newCLASP(t)
	rows, err := c.Table1([]string{"us-west1", "us-east1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// Structural invariants of Table 1.
		if r.PilotLinks <= r.ServerLinks {
			t.Errorf("%s: pilot links (%d) should far exceed server links (%d)", r.Region, r.PilotLinks, r.ServerLinks)
		}
		if r.Measured > r.ServerLinks {
			t.Errorf("%s: measured (%d) > server links (%d)", r.Region, r.Measured, r.ServerLinks)
		}
		if r.CoveragePct <= 0 || r.CoveragePct > 100 {
			t.Errorf("%s: coverage %.1f%%", r.Region, r.CoveragePct)
		}
		// Most servers share interconnects (paper: 75.5-91.6%).
		if r.SharedPct < 50 {
			t.Errorf("%s: shared fraction %.1f%%, want > 50%%", r.Region, r.SharedPct)
		}
	}
}

func TestTopologyCampaignAndFigures(t *testing.T) {
	c := newCLASP(t)
	res, sel, err := c.RunTopologyCampaign("us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRecords() == 0 || res.Report.Tests == 0 {
		t.Fatal("empty campaign")
	}

	// Fig 2: sweeps are monotone non-increasing and bracket the paper's
	// observations loosely at H=0.25 vs H=0.5.
	fig2 := Fig2(map[string]*CampaignResult{"us-west1": res}, nil, 1)
	if len(fig2) != 1 {
		t.Fatalf("fig2 series = %d", len(fig2))
	}
	sweep := fig2[0]
	var at25, at50 float64
	for _, p := range sweep.Days {
		if p.H == 0.25 {
			at25 = p.Fraction
		}
		if p.H == 0.5 {
			at50 = p.Fraction
		}
	}
	if at25 <= at50 {
		t.Errorf("day sweep not decreasing: f(0.25)=%.2f <= f(0.5)=%.2f", at25, at50)
	}
	// At H=0.5 the day fraction should be moderate (paper: 11-30%).
	if at50 < 0.02 || at50 > 0.6 {
		t.Errorf("congested days at H=0.5: %.3f, want moderate", at50)
	}
	var h25, h50 float64
	for _, p := range sweep.Hours {
		if p.H == 0.25 {
			h25 = p.Fraction
		}
		if p.H == 0.5 {
			h50 = p.Fraction
		}
	}
	if h50 > 0.15 || h50 <= 0 {
		t.Errorf("congested hours at H=0.5: %.4f, want small but positive", h50)
	}
	if h25 <= h50 {
		t.Error("hour sweep not decreasing")
	}
	// The elbow lands in a plausible band.
	if sweep.ElbowH < 0.15 || sweep.ElbowH > 0.8 {
		t.Errorf("elbow at H=%.2f", sweep.ElbowH)
	}

	// Fig 4 (topology panel): latency mostly < 150ms, p95 download well
	// below the 1 Gbps cap.
	fig4, err := Fig4(res, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	lowLat, capped := 0, 0
	for _, p := range fig4.Points {
		if p.P5LatMs < 150 {
			lowLat++
		}
		if p.P95Down >= 950 {
			capped++
		}
	}
	if float64(lowLat) < 0.8*float64(len(fig4.Points)) {
		t.Errorf("only %d/%d points under 150ms", lowLat, len(fig4.Points))
	}
	if capped > len(fig4.Points)/10 {
		t.Errorf("%d/%d points saturate the 1Gbps cap", capped, len(fig4.Points))
	}

	// Fig 6: top congested pairs with hourly probabilities.
	lines := c.Fig6(res, bgp.Premium, 10)
	if len(lines) == 0 {
		t.Fatal("no Fig6 lines (no congestion events at all)")
	}
	for _, l := range lines {
		sum := 0.0
		for _, p := range l.Probs {
			if p < 0 || p > 1 {
				t.Errorf("probability out of range: %v", p)
			}
			sum += p
		}
		if sum == 0 {
			t.Errorf("line %s has all-zero probabilities", l.Label)
		}
		if l.Events == 0 {
			t.Errorf("line %s has no events", l.Label)
		}
	}

	// Fig 7 points.
	pts := c.Fig7("us-west1", sel, nil)
	if len(pts) != len(sel.Selected)+1 {
		t.Errorf("fig7 points = %d, want %d", len(pts), len(sel.Selected)+1)
	}
	if pts[0].Kind != "region" {
		t.Error("first point should be the region marker")
	}

	// Fig 8: counts consistent.
	rows := c.Fig8(res, bgp.Premium)
	total := 0
	for _, r := range rows {
		if r.Congested > r.Total {
			t.Errorf("row %+v inconsistent", r)
		}
		total += r.Total
	}
	if total != len(sel.Selected) {
		t.Errorf("fig8 total %d != selected %d", total, len(sel.Selected))
	}
}

func TestFig3CoxSeries(t *testing.T) {
	c := newCLASP(t)
	// Build a campaign that includes the Cox Las Vegas server directly.
	var servers []*selection.Selected
	_ = servers
	res, _, err := c.RunTopologyCampaign("us-west1", 40)
	if err != nil {
		t.Fatal(err)
	}
	fig3, err := c.Fig3(res)
	if err != nil {
		t.Skipf("Cox server not in selection at this scale: %v", err)
	}
	if len(fig3.Samples) == 0 || len(fig3.VH) != len(fig3.Samples) {
		t.Fatalf("fig3 window malformed: %d samples, %d VH", len(fig3.Samples), len(fig3.VH))
	}
	for i, v := range fig3.VH {
		if v < 0 || v > 1 {
			t.Errorf("VH[%d] = %v", i, v)
		}
	}
	for _, e := range fig3.Events {
		if e.VH <= 0.5 {
			t.Errorf("event below threshold: %+v", e)
		}
	}
}

func TestDifferentialCampaignAndFig5(t *testing.T) {
	c := newCLASP(t)
	res, sel, err := c.RunDifferentialCampaign("europe-west1", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("no differential servers")
	}
	fig5, err := Fig5(res, sel)
	if err != nil {
		t.Fatal(err)
	}
	// §4.1: standard tier generally faster for downloads.
	if fig5.StdHigherDownload < 0.5 {
		t.Errorf("standard faster in only %.0f%% of download pairs", fig5.StdHigherDownload*100)
	}
	// Relative differences mostly within 50%.
	if fig5.Within50 < 0.6 {
		t.Errorf("|delta|<0.5 in only %.0f%%", fig5.Within50*100)
	}
	metrics := make(map[analysis.Metric]bool)
	for _, curve := range fig5.Curves {
		metrics[curve.Metric] = true
		if len(curve.CDF) == 0 || curve.N == 0 {
			t.Errorf("empty curve: %+v", curve)
		}
	}
	if len(metrics) != 3 {
		t.Errorf("metrics covered: %v", metrics)
	}

	// Fig 6c equivalent: congestion lines per tier.
	prem := c.Fig6(res, bgp.Premium, 6)
	std := c.Fig6(res, bgp.Standard, 6)
	if len(prem) == 0 && len(std) == 0 {
		t.Log("no congested differential pairs at this scale (acceptable)")
	}
}

func TestComputeHeadlines(t *testing.T) {
	c := newCLASP(t)
	resW, _, err := c.RunTopologyCampaign("us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	diff, _, err := c.RunDifferentialCampaign("europe-west1", 10, 6)
	if err != nil {
		t.Fatal(err)
	}
	h := c.ComputeHeadlines(map[string]*CampaignResult{"us-west1": resW}, diff)
	// Finding 1: 1.3-3% of hours congested (loose band for small scale).
	if h.CongestedHourFrac <= 0 || h.CongestedHourFrac > 0.12 {
		t.Errorf("congested hour fraction = %.4f", h.CongestedHourFrac)
	}
	// Finding 2: 30-70% of ISPs congested (loose band).
	if h.CongestedISPFrac < 0.1 || h.CongestedISPFrac > 0.95 {
		t.Errorf("congested ISP fraction = %.2f", h.CongestedISPFrac)
	}
	// Finding 3: most p95 download in 200-600 Mbps.
	if h.P95DownIn200600 < 0.4 {
		t.Errorf("p95 in band fraction = %.2f", h.P95DownIn200600)
	}
	// Finding 4: standard tier generally higher.
	if h.StdTierHigherFrac < 0.5 {
		t.Errorf("standard higher fraction = %.2f", h.StdTierHigherFrac)
	}
}

func TestRunTopologyCampaignsMatchesIndividual(t *testing.T) {
	regions := []string{"us-west1", "us-central1"}
	// Concurrent multi-region run at parallelism 3.
	par, err := New(Options{Seed: 3, Scale: 0.1, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	par.NewCommandScheduler("topology-campaigns")
	results, sels, err := par.RunTopologyCampaigns(regions, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sequential single-region runs on a fresh instance, same seed. With no
	// scheduler attached it refuses the multi-region call.
	seq := newCLASP(t)
	if _, _, err := seq.RunTopologyCampaigns(regions, 2); err == nil {
		t.Fatal("RunTopologyCampaigns ran without a command scheduler")
	}
	for _, region := range regions {
		want, _, err := seq.RunTopologyCampaign(region, 2)
		if err != nil {
			t.Fatal(err)
		}
		got := results[region]
		if got == nil || sels[region] == nil {
			t.Fatalf("region %s missing from concurrent results", region)
		}
		gotRecs, wantRecs := drainRecords(got), drainRecords(want)
		if len(gotRecs) != len(wantRecs) {
			t.Fatalf("%s: %d records, want %d", region, len(gotRecs), len(wantRecs))
		}
		for i := range gotRecs {
			if gotRecs[i] != wantRecs[i] {
				t.Fatalf("%s: record %d = %+v, want %+v", region, i, gotRecs[i], wantRecs[i])
			}
		}
		if got.Report.Tests != want.Report.Tests || got.Report.VMs != want.Report.VMs {
			t.Errorf("%s: report %+v, want %+v", region, got.Report, want.Report)
		}
	}
}

func TestDefaultThresholdGrid(t *testing.T) {
	hs := DefaultThresholdGrid()
	if len(hs) != 21 || hs[0] != 0 || hs[20] != 1 {
		t.Errorf("grid = %v", hs)
	}
}

func TestFig2RegionalOrdering(t *testing.T) {
	// Fig 2: us-west1 showed the lowest and us-east4 the highest
	// percentage of congestion events.
	c := newCLASP(t)
	results := make(map[string]*CampaignResult)
	for _, region := range []string{"us-west1", "us-east4"} {
		res, _, err := c.RunTopologyCampaign(region, 30)
		if err != nil {
			t.Fatal(err)
		}
		results[region] = res
	}
	sweeps := Fig2(results, []float64{0.5}, 4)
	frac := make(map[string]float64)
	for _, s := range sweeps {
		frac[s.Region] = s.Days[0].Fraction
	}
	if frac["us-west1"] >= frac["us-east4"] {
		t.Errorf("us-west1 (%.3f) not below us-east4 (%.3f) at H=0.5",
			frac["us-west1"], frac["us-east4"])
	}
}
