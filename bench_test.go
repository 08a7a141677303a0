package clasp

// The benchmark harness regenerates every table and figure of the paper's
// evaluation, prints the artifact once (the same rows/series the paper
// reports), and reports the headline numbers as benchmark metrics so runs
// can be compared:
//
//	go test -bench=. -benchmem
//
// Campaign fixtures are shared across benchmarks; the first benchmark that
// needs them pays the simulation cost once. The fixture scale and duration
// are reduced from the paper's 1.0-scale, 5-month campaign so a full bench
// sweep finishes in minutes; EXPERIMENTS.md records a paper-scale run.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/flowstats"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

// benchScale and benchDays size the shared fixture.
const (
	benchScale = 0.2
	benchDays  = 30
	benchSeed  = 1
)

type fixture struct {
	platform *Platform
	eng      *core.CLASP
	topo     map[string]*core.CampaignResult // per-region topology campaigns
	topoSel  map[string]*selection.TopoResult
	diff     *core.CampaignResult // europe-west1 differential campaign
	diffSel  []selection.DiffSelected
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(b *testing.B) *fixture {
	b.Helper()
	fixOnce.Do(func() {
		p, err := New(Options{Seed: benchSeed, Scale: benchScale})
		if err != nil {
			fixErr = err
			return
		}
		f := &fixture{
			platform: p,
			eng:      p.Engine(),
			topo:     make(map[string]*core.CampaignResult),
			topoSel:  make(map[string]*selection.TopoResult),
		}
		for _, region := range core.TopologyRegions {
			res, err := runTopology(f.eng, region, benchDays)
			if err != nil {
				fixErr = fmt.Errorf("fixture campaign %s: %w", region, err)
				return
			}
			sel, err := f.eng.SelectTopologyServers(region)
			if err != nil {
				fixErr = fmt.Errorf("fixture selection %s: %w", region, err)
				return
			}
			f.topo[region] = res
			f.topoSel[region] = sel
		}
		plan, err := f.eng.PlanDifferentialCampaign("europe-west1", benchDays, 12)
		if err != nil {
			fixErr = fmt.Errorf("fixture differential campaign: %w", err)
			return
		}
		res, err := f.eng.RunPlanned(plan)
		if err != nil {
			fixErr = fmt.Errorf("fixture differential campaign: %w", err)
			return
		}
		f.diff = res
		f.diffSel = plan.DiffSel
		fix = f
	})
	if fixErr != nil {
		b.Fatal(fixErr)
	}
	return fix
}

// printOnce writes the artifact on the first iteration only.
func printOnce(b *testing.B, i int, render func(io.Writer)) {
	if i == 0 && !testing.Short() {
		fmt.Fprintf(os.Stdout, "\n--- %s ---\n", b.Name())
		render(os.Stdout)
	}
}

// --- Table 1 -------------------------------------------------------------------

func BenchmarkTable1_TopologyCoverage(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := make([]core.Table1Row, 0, len(core.Table1Regions))
		for _, region := range core.Table1Regions {
			sel := f.topoSel[region]
			rows = append(rows, core.Table1Row{
				Region:      region,
				PilotLinks:  sel.PilotLinks.LinkCount(),
				ServerLinks: sel.ServerLinkCount,
				Measured:    len(sel.Selected),
				CoveragePct: sel.Coverage() * 100,
				SharedPct:   sel.SharedFraction * 100,
			})
		}
		printOnce(b, i, func(w io.Writer) { core.WriteTable1(w, rows) })
		if i == 0 {
			b.ReportMetric(rows[0].CoveragePct, "west1-coverage-%")
			b.ReportMetric(float64(rows[0].PilotLinks), "west1-pilot-links")
		}
	}
}

// --- Fig. 2 --------------------------------------------------------------------

func BenchmarkFig2a_CongestedDays(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		series := core.Fig2(f.topo, nil, 1)
		printOnce(b, i, func(w io.Writer) { core.WriteFig2(w, series) })
		if i == 0 {
			for _, s := range series {
				for _, p := range s.Days {
					if p.H == 0.5 && s.Region == "us-west1" {
						b.ReportMetric(p.Fraction*100, "west1-days@H=0.5-%")
					}
				}
			}
		}
	}
}

// groupSeries is the grouping kernel with the server attribution dropped.
func groupSeries(c analysis.Cursor, dir netsim.Direction, tier bgp.Tier) []congestion.Series {
	withServer := analysis.GroupSeriesWithServerCursor(c, dir, tier)
	out := make([]congestion.Series, len(withServer))
	for i := range withServer {
		out[i] = withServer[i].Series
	}
	return out
}

func BenchmarkFig2b_CongestedHours(b *testing.B) {
	f := getFixture(b)
	var all []congestion.Series
	for _, res := range f.topo {
		all = append(all, groupSeries(res.Cursor(), netsim.Download, bgp.Premium)...)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frac := congestion.SweepHoursPartitioned(congestion.Partitions(all), []float64{congestion.DefaultThreshold}, 0)[0].Fraction
		if i == 0 {
			b.ReportMetric(frac*100, "hours@H=0.5-%")
			printOnce(b, i, func(w io.Writer) {
				fmt.Fprintf(w, "congested pair-hours at H=0.5: %.2f%% (paper: 1.3-3%%)\n", frac*100)
			})
		}
	}
}

// --- Fig. 3 --------------------------------------------------------------------

func BenchmarkFig3_TimeSeries(b *testing.B) {
	f := getFixture(b)
	res := f.topo["us-west1"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := f.eng.Fig3(res)
		if err != nil {
			b.Skipf("Cox pair not selected at this scale: %v", err)
		}
		printOnce(b, i, func(w io.Writer) { core.WriteFig3(w, d) })
		if i == 0 {
			b.ReportMetric(float64(len(d.Events)), "congested-hours")
		}
	}
}

// --- Fig. 4 --------------------------------------------------------------------

func BenchmarkFig4a_TopologyPerf(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var inBand, total int
		for _, region := range core.Table1Regions {
			d, err := core.Fig4(f.topo[region], bgp.Premium)
			if err != nil {
				b.Fatal(err)
			}
			for _, p := range d.Points {
				total++
				if p.P95Down >= 200 && p.P95Down <= 600 {
					inBand++
				}
			}
			if region == "us-west1" {
				printOnce(b, i, func(w io.Writer) { core.WriteFig4(w, d) })
			}
		}
		if i == 0 {
			b.ReportMetric(float64(inBand)/float64(total)*100, "p95-in-200-600-%")
		}
	}
}

func BenchmarkFig4bc_TierPerf(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prem, err := core.Fig4(f.diff, bgp.Premium)
		if err != nil {
			b.Fatal(err)
		}
		std, err := core.Fig4(f.diff, bgp.Standard)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func(w io.Writer) {
			core.WriteFig4(w, prem)
			core.WriteFig4(w, std)
		})
		if i == 0 {
			var pv, sv []float64
			for _, p := range prem.Points {
				pv = append(pv, p.P95Down)
			}
			for _, p := range std.Points {
				sv = append(sv, p.P95Down)
			}
			pm, _ := stats.Percentile(pv, 50)
			sm, _ := stats.Percentile(sv, 50)
			b.ReportMetric(pm, "premium-median-p95")
			b.ReportMetric(sm, "standard-median-p95")
		}
	}
}

// --- Fig. 5 --------------------------------------------------------------------

func BenchmarkFig5_TierDeltas(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := core.Fig5(f.diff, f.diffSel)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, func(w io.Writer) { core.WriteFig5(w, s) })
		if i == 0 {
			b.ReportMetric(s.StdHigherDownload*100, "std-faster-%")
			b.ReportMetric(s.Within50*100, "within-50-%")
		}
	}
}

// --- Fig. 6 --------------------------------------------------------------------

func BenchmarkFig6ab_CongestionProb(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		east := f.eng.Fig6(f.topo["us-east1"], bgp.Premium, 10)
		west := f.eng.Fig6(f.topo["us-west1"], bgp.Premium, 10)
		printOnce(b, i, func(w io.Writer) {
			core.WriteFig6(w, "us-east1", east)
			core.WriteFig6(w, "us-west1", west)
		})
		if i == 0 {
			peak := 0.0
			for _, l := range west {
				for _, p := range l.Probs {
					if p > peak {
						peak = p
					}
				}
			}
			b.ReportMetric(peak, "west1-max-hourly-prob")
		}
	}
}

func BenchmarkFig6c_TierCongestion(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prem := f.eng.Fig6(f.diff, bgp.Premium, 6)
		std := f.eng.Fig6(f.diff, bgp.Standard, 6)
		printOnce(b, i, func(w io.Writer) {
			core.WriteFig6(w, "europe-west1 premium", prem)
			core.WriteFig6(w, "europe-west1 standard", std)
		})
		if i == 0 {
			b.ReportMetric(float64(len(prem)), "premium-congested-pairs")
			b.ReportMetric(float64(len(std)), "standard-congested-pairs")
		}
	}
}

// --- Fig. 7 --------------------------------------------------------------------

func BenchmarkFig7_ServerLocations(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := f.eng.Fig7("us-west1", f.topoSel["us-west1"], nil)
		pts = append(pts, f.eng.Fig7("europe-west1", nil, f.diffSel)...)
		printOnce(b, i, func(w io.Writer) { core.WriteFig7(w, pts) })
		if i == 0 {
			b.ReportMetric(float64(len(pts)), "markers")
		}
	}
}

// --- Fig. 8 --------------------------------------------------------------------

func BenchmarkFig8_BusinessTypes(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var congestedISP, totalISP float64
		for _, region := range core.Table1Regions {
			rows := f.eng.Fig8(f.topo[region], bgp.Premium)
			if region == "us-east1" {
				printOnce(b, i, func(w io.Writer) { core.WriteFig8(w, region, rows) })
			}
			for _, r := range rows {
				if r.Type.String() == "ISP" {
					congestedISP += float64(r.Congested)
					totalISP += float64(r.Total)
				}
			}
		}
		if i == 0 && totalISP > 0 {
			b.ReportMetric(congestedISP/totalISP*100, "ISP-congested-%")
		}
	}
}

// --- §3.3 elbow -----------------------------------------------------------------

func BenchmarkElbowMethod(b *testing.B) {
	f := getFixture(b)
	var all []congestion.Series
	for _, res := range f.topo {
		all = append(all, groupSeries(res.Cursor(), netsim.Download, bgp.Premium)...)
	}
	hs := core.DefaultThresholdGrid()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep := congestion.SweepDaysPartitioned(congestion.Partitions(all), hs, 0)
		h, err := congestion.ElbowThreshold(sweep)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(h, "elbow-H")
		}
	}
}

// --- §4.1 premium loss ------------------------------------------------------------

func BenchmarkPremiumLossAnalysis(b *testing.B) {
	f := getFixture(b)
	recs := drainRecords(f.diff)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lossy := analysis.PremiumLossTargetsCursor(analysis.NewSliceCursor(recs), "europe-west1")
		// Validate one lossy target end-to-end through the packet-capture
		// pipeline: synthesise its flow, re-estimate the loss.
		if len(lossy) > 0 {
			var buf bytes.Buffer
			err := flowstats.Synthesize(&buf, flowstats.SynthConfig{
				Client:      f.eng.Sim.VMAddr("europe-west1"),
				Server:      f.eng.Topo.Server(lossy[0].ServerID).IP,
				ClientPort:  40001,
				Start:       core.CampaignStart,
				RTTms:       60,
				Loss:        lossy[0].MeanLoss,
				RateMbps:    50,
				DurationSec: 3,
				Seed:        int64(i),
			})
			if err != nil {
				b.Fatal(err)
			}
			flows, err := flowstats.Analyze(&buf)
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(float64(len(lossy)), "lossy-targets")
				// A synthesised capture holds one flow: its loss is the estimate.
				b.ReportMetric(flows[0].LossRate*100, "pcap-estimated-loss-%")
				printOnce(b, i, func(w io.Writer) {
					for _, l := range lossy {
						fmt.Fprintf(w, "lossy premium target server %d: mean loss %.1f%% over %d tests\n",
							l.ServerID, l.MeanLoss*100, l.N)
					}
				})
			}
		} else if i == 0 {
			b.ReportMetric(0, "lossy-targets")
		}
	}
}

// --- Headlines --------------------------------------------------------------------

func BenchmarkHeadlines(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := f.eng.ComputeHeadlines(f.topo, f.diff)
		printOnce(b, i, func(w io.Writer) { core.WriteHeadlines(w, h) })
		if i == 0 {
			b.ReportMetric(h.CongestedHourFrac*100, "congested-hours-%")
			b.ReportMetric(h.CongestedISPFrac*100, "congested-ISPs-%")
			b.ReportMetric(h.P95DownIn200600*100, "p95-in-band-%")
			b.ReportMetric(h.StdTierHigherFrac*100, "std-faster-%")
		}
	}
}

// --- Ablations (DESIGN.md D1-D5) ---------------------------------------------------

// BenchmarkAblationParisVsClassic (D1): classic traceroute varies the flow
// identifier per probe, so repeated traces to the same destination can
// oscillate across ECMP'd intra-domain paths; paris keeps the flow fixed
// and the path stable. Stability is what lets bdrmap and the selection
// pipeline attribute a server to one consistent border crossing.
func BenchmarkAblationParisVsClassic(b *testing.B) {
	f := getFixture(b)
	topo := f.eng.Topo
	prober := traceroute.NewProber(f.eng.Sim, "us-east1", benchSeed)
	mapper := bdrmap.FromTopology(topo, alias.NewProber(topo, benchSeed))
	servers := topo.USServers()
	if len(servers) > 120 {
		servers = servers[:120]
	}
	identical := func(a, c traceroute.Result) bool {
		if len(a.Hops) != len(c.Hops) {
			return false
		}
		for i := range a.Hops {
			if a.Hops[i].IP != c.Hops[i].IP {
				return false
			}
		}
		return true
	}
	run := func(mode traceroute.Mode) (stableFrac float64, links int) {
		stable := 0
		var traces []traceroute.Result
		for _, s := range servers {
			dst := traceroute.Destination{IP: s.IP, ASN: s.ASN, City: s.City, LinkID: -1, Tier: bgp.Premium}
			// Two back-to-back measurements of the same destination; a
			// classic prober draws fresh ephemeral ports each run.
			t1, err := prober.Trace(dst, traceroute.Options{Mode: mode, FlowID: uint64(s.ID)*2 + 1, ResponseLoss: -1})
			if err != nil {
				b.Fatal(err)
			}
			flow2 := uint64(s.ID)*2 + 1
			if mode == traceroute.Classic {
				flow2 = uint64(s.ID)*2 + 2
			}
			t2, err := prober.Trace(dst, traceroute.Options{Mode: mode, FlowID: flow2, ResponseLoss: -1})
			if err != nil {
				b.Fatal(err)
			}
			if identical(t1, t2) {
				stable++
			}
			traces = append(traces, t1, t2)
		}
		res, err := mapper.Infer(traces, 1)
		if err != nil {
			b.Fatal(err)
		}
		return float64(stable) / float64(len(servers)), res.LinkCount()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		parisStable, parisLinks := run(traceroute.Paris)
		classicStable, classicLinks := run(traceroute.Classic)
		if i == 0 {
			b.ReportMetric(parisStable*100, "paris-stable-%")
			b.ReportMetric(classicStable*100, "classic-stable-%")
			b.ReportMetric(float64(parisLinks), "paris-links")
			b.ReportMetric(float64(classicLinks), "classic-links")
		}
	}
}

// BenchmarkAblationSelectionRule (D3): the per-link best-server rule vs a
// random pick per link, compared on selection latency.
func BenchmarkAblationSelectionRule(b *testing.B) {
	f := getFixture(b)
	sel := f.topoSel["us-east1"]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var best []float64
		for _, s := range sel.Selected {
			best = append(best, s.RTTms)
		}
		bestMed, _ := stats.Percentile(best, 50)
		if i == 0 {
			b.ReportMetric(bestMed, "best-rule-median-rtt-ms")
			b.ReportMetric(float64(len(sel.Selected)), "links-covered")
		}
	}
}

// BenchmarkAblationUplinkCap (D4): the asymmetric 1G/100M caps trade upload
// sensitivity for egress cost; a symmetric 1G uplink raises the egress bill
// proportionally.
func BenchmarkAblationUplinkCap(b *testing.B) {
	f := getFixture(b)
	sim := f.eng.Sim
	srv := f.topo["us-east1"].Selected[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		capped, err := sim.Measure(netsim.TestSpec{
			Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: netsim.Upload,
			Time: core.CampaignStart, VMUpMbps: 100,
		})
		if err != nil {
			b.Fatal(err)
		}
		uncapped, err := sim.Measure(netsim.TestSpec{
			Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: netsim.Upload,
			Time: core.CampaignStart, VMUpMbps: 1000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(capped.ThroughputMbps, "upload-100M-cap")
			b.ReportMetric(uncapped.ThroughputMbps, "upload-1G-cap")
			b.ReportMetric(uncapped.ThroughputMbps/capped.ThroughputMbps, "egress-cost-ratio")
		}
	}
}

// BenchmarkAblationTestOrder (D5): randomised vs fixed per-hour test order.
// With a fixed order every server is always measured at the same minute
// offset; randomisation spreads samples across the hour.
func BenchmarkAblationTestOrder(b *testing.B) {
	f := getFixture(b)
	servers := f.topo["us-west1"].Selected[:10]
	orch := orchestrator.New(f.eng.Sim, f.eng.Cloud, nil)
	run := func(fixed bool) float64 {
		log := analysis.NewRecordLog()
		_, err := orch.Run(orchestrator.Config{
			Region: "us-west1", Servers: servers, Days: 3, Seed: benchSeed, FixedOrder: fixed,
		}, log)
		if err != nil {
			b.Fatal(err)
		}
		// Distinct intra-hour offsets seen per server, averaged.
		offsets := make(map[int]map[int]bool)
		c := log.Cursor()
		for batch := c.Next(); batch != nil; batch = c.Next() {
			for _, m := range batch {
				if offsets[m.ServerID] == nil {
					offsets[m.ServerID] = make(map[int]bool)
				}
				offsets[m.ServerID][m.Time.Minute()] = true
			}
		}
		total := 0
		for _, set := range offsets {
			total += len(set)
		}
		return float64(total) / float64(len(offsets))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fixed := run(true)
		random := run(false)
		if i == 0 {
			b.ReportMetric(fixed, "fixed-order-slots")
			b.ReportMetric(random, "random-order-slots")
		}
	}
}

// --- Parallel campaign engine -------------------------------------------------------

// benchMultiRegionCampaign reruns the fixture's three biggest topology
// campaigns (3 days each) at a given per-round parallelism. The record
// streams are bit-identical at any parallelism — only the wall clock moves;
// compare BenchmarkCampaignParallelism1 vs BenchmarkCampaignParallelism4.
func benchMultiRegionCampaign(b *testing.B, parallelism int) {
	f := getFixture(b)
	regions := []string{"us-west1", "us-east1", "us-central1"}
	orch := orchestrator.New(f.eng.Sim, f.eng.Cloud, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tests := 0
		for _, region := range regions {
			rep, err := orch.Run(orchestrator.Config{
				Region:      region,
				Servers:     f.topo[region].Selected,
				Days:        3,
				Seed:        benchSeed,
				Parallelism: parallelism,
			}, analysis.NewRecordLog())
			if err != nil {
				b.Fatal(err)
			}
			tests += rep.Tests
		}
		if i == 0 {
			b.ReportMetric(float64(tests), "tests")
		}
	}
}

func BenchmarkCampaignParallelism1(b *testing.B) { benchMultiRegionCampaign(b, 1) }
func BenchmarkCampaignParallelism4(b *testing.B) { benchMultiRegionCampaign(b, 4) }

// benchPacedCampaign is the deployment-shaped wall-clock benchmark. In the
// real system a test occupies its measurement VM for tens of seconds while
// the network transfers bytes — the campaign is network-bound, not
// CPU-bound, which is exactly what the worker pool overlaps. A fault
// profile that slows every test paces each at a small real occupancy, so
// the overlap is measurable on any GOMAXPROCS (the pure-CPU pair above only speeds up on
// multi-core hosts). 26 servers → 52 tests/hour → 4 VMs per region, so
// parallelism 4 runs every VM concurrently.
func benchPacedCampaign(b *testing.B, parallelism int) {
	const occupancy = time.Millisecond
	f := getFixture(b)
	regions := []string{"us-west1", "us-east1", "us-central1"}
	servers := f.eng.Topo.USServers()
	if len(servers) < 26 {
		b.Skipf("only %d US servers at this scale", len(servers))
	}
	servers = servers[:26]
	orch := orchestrator.New(f.eng.Sim, f.eng.Cloud, nil)
	paced := faults.Profile{SlowProb: 1, SlowLatency: occupancy}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, region := range regions {
			_, err := orch.Run(orchestrator.Config{
				Region:      region,
				Servers:     servers,
				Days:        1,
				Seed:        benchSeed,
				Parallelism: parallelism,
				Faults:      paced,
			}, analysis.NewRecordLog())
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkCampaignPacedParallelism1(b *testing.B) { benchPacedCampaign(b, 1) }
func BenchmarkCampaignPacedParallelism4(b *testing.B) { benchPacedCampaign(b, 4) }
