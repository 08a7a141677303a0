package main

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"strings"

	clasp "github.com/clasp-measurement/clasp"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"
)

// shape sizes a workload. The registry's shapes are what every recorded
// number refers to; only the -short smoke test runs smaller ones.
type shape struct {
	scale    float64 // topology scale (1.0 = paper scale)
	days     int     // campaign length in virtual days
	rounds   int     // analysis_replay: passes over the record log
	memoryMB int     // > 0: memory-budgeted, checkpointing engine (RecordLog path)
}

// workload is one set of inputs the benchmark runs. setup is untimed (it is
// reported as setup_s) and leaves a ready engine in the run; timed renders
// every output byte into out and is what wall_s, cpu_s and work_per_s
// measure. Both drive the same public calls cmd/clasp does.
type workload struct {
	name     string
	why      string
	workUnit string
	oneCore  bool // pinned to GOMAXPROCS=1, Parallelism 1
	shape    shape
	refs     func(r *run) []core.CampaignRef // campaigns measured, in command order; nil for none
	setup    func(r *run) error
	timed    func(r *run, out io.Writer) error
	verify   func(r *run, output []byte) error // optional, after the clock stops

	// again repeats the workload's analysis and render calls over campaigns
	// the run has already measured; the traced run times it as
	// scenario.render_warm_s. nil when the workload measures no campaign.
	again func(r *run, out io.Writer) error
}

// run is the state of one execution of a workload inside a child process.
type run struct {
	w     *workload
	seed  int64
	procs int
	tmp   string // private scratch directory, removed by the child on exit

	eng *core.CLASP
	res *core.CampaignResult // streaming workloads: the one campaign they measure

	// Filled by timed.
	work      float64 // units of w.workUnit completed
	attempted int     // operations scheduled
	failed    int     // operations failed or dropped
	problems  []string

	cache *scenario.ArtifactCache // report_all: holds the measured campaigns
}

func (r *run) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// Fixed campaign parameters shared by the streaming workloads.
const (
	streamRegion    = "us-east1"
	checkpointEvery = 24
)

// reportAllShape is the EXPERIMENTS.md topology scale at 12 days. Every
// campaign stays below the engine's index limit, so all records reach the
// tsdb. A series holds 288 points, below the seal threshold of 512, unless
// both campaigns of a region measure its server: that series seals and the
// later out-of-order inserts reopen it. At 22 days and more every series
// seals and each such insert re-encodes a whole block, a cost that grows
// with the square of the days and with how many servers the seed makes the
// two selections share (tsdb.ingest_s 1.4-3.6 s across ten seeds at 22
// days); the metric would then measure the seed.
var reportAllShape = shape{scale: 0.25, days: 12}

// streamShape is the paper-scale topology at 30 days: 184 servers x 720
// hours x 2 tests is just above the index limit, so the campaign bypasses
// the tsdb, and far above half the 32 MB memory budget, so it streams.
var streamShape = shape{scale: 1.0, days: 30, memoryMB: 32}

var workloads = []*workload{
	{
		name:     "report_all",
		why:      "clasp report all on every core: selection, warm, Measure, slice+tsdb+prep sinks, analysis, render and the pipelined scheduler all do work",
		workUnit: "records",
		shape:    reportAllShape,
		refs:     reportAllRefs,
		setup:    setupEngine,
		timed:    timedReportAll,
		verify:   verifyReportAll,
		again:    renderReportAll,
	},
	{
		name:     "report_all_1core",
		why:      "same inputs at GOMAXPROCS=1: no parallel GC, lock contention or overlap, so a multi-core gain bought with single-core cost shows here",
		workUnit: "records",
		oneCore:  true,
		shape:    reportAllShape,
		refs:     reportAllRefs,
		setup:    setupEngine,
		timed:    timedReportAll,
		verify:   verifyReportAll,
		again:    renderReportAll,
	},
	{
		name:     "campaign_stream",
		why:      "paper-scale memory-budgeted campaign: RecordLog append/seal/spill, checkpoint commits and cursor kernels; bypasses StoreSink/tsdb and CampaignPrep",
		workUnit: "records",
		shape:    streamShape,
		refs:     streamRefs,
		setup:    setupEngine,
		timed:    timedCampaignStream,
		again:    func(r *run, out io.Writer) error { return renderAnalysis(r, r.res, out, false) },
	},
	{
		name:     "select_paper",
		why:      "cold path only at paper scale: topology, cold BGP trees, pilot traceroutes, bdrmap/alias and speedchecker scans; no campaign runs",
		workUnit: "pilot_links",
		shape:    shape{scale: 1.0},
		setup:    setupEngine,
		timed:    timedSelectPaper,
	},
	{
		name:     "analysis_replay",
		why:      "repeated analysis passes over a spilled record log: analysis, congestion, stats and block decode do all the work, measurement none",
		workUnit: "records_scanned",
		shape:    shape{scale: streamShape.scale, days: streamShape.days, memoryMB: streamShape.memoryMB, rounds: 12},
		refs:     streamRefs,
		setup:    setupAnalysisReplay,
		timed:    timedAnalysisReplay,
		again:    timedAnalysisReplay,
	},
}

func (w *workload) streams() bool { return w.shape.memoryMB > 0 }

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// options returns the engine options the program under test receives: the
// only place the workload seed enters.
func (r *run) options() core.Options {
	o := core.Options{Seed: r.seed, Scale: r.w.shape.scale, Parallelism: r.procs}
	if r.w.streams() {
		o.MaxMemoryMB = r.w.shape.memoryMB
		o.SpillDir = r.tmp
		o.CheckpointDir = filepath.Join(r.tmp, "ck")
		o.CheckpointEvery = checkpointEvery
	}
	return o
}

// minSamples is cmd/clasp's default differential-scan threshold: the
// paper's >= 100 rule scaled with the vantage-point population.
func (r *run) minSamples() int {
	return max(int(100*r.w.shape.scale), 6)
}

func reportAllRefs(r *run) []core.CampaignRef {
	return scenario.CampaignRefs([]string{"all"}, r.w.shape.days, r.minSamples())
}

func streamRefs(r *run) []core.CampaignRef {
	return []core.CampaignRef{{Kind: "topology", Region: streamRegion, Days: r.w.shape.days}}
}

// scheduledTests is the number of tests a planned campaign schedules: two
// per server per hour per tier.
func scheduledTests(p *core.PlannedCampaign) int {
	return len(p.Servers) * p.Camp.Days * 24 * 2 * len(p.Tiers)
}

// checkReport applies the per-campaign output checks: every scheduled test
// completed or was accounted as dropped, and every completed test left a
// record. With no fault profile, anything failed or dropped is a defect
// and is counted in r.failed.
func (r *run) checkReport(p *core.PlannedCampaign, res *core.CampaignResult) {
	rep, sched := res.Report, scheduledTests(p)
	r.attempted += sched
	r.failed += rep.Failed + rep.Dropped
	if rep.Tests+rep.Dropped != sched {
		r.problemf("%s: tests %d + dropped %d != scheduled %d", res.Region, rep.Tests, rep.Dropped, sched)
	}
	if res.NumRecords() != rep.Tests {
		r.problemf("%s: %d records for %d tests", res.Region, res.NumRecords(), rep.Tests)
	}
}

func setupEngine(r *run) error {
	eng, err := core.New(r.options())
	r.eng = eng
	return err
}

func timedReportAll(r *run, out io.Writer) error {
	sched := r.eng.NewCommandScheduler("report-all")
	if err := sched.WriteManifest("report", "all", r.w.refs(r)); err != nil {
		return err
	}
	r.cache = scenario.NewArtifactCache()
	r.cache.UseScheduler(sched)
	return renderReportAll(r, out)
}

func renderReportAll(r *run, out io.Writer) error {
	return scenario.RenderArtifact(out, clasp.NewFromCore(r.eng), r.cache, "all", r.w.shape.days, r.minSamples())
}

// verifyReportAll checks a report_all run after the clock stops: every
// artifact's separator is in the output, and every scheduled test left a
// record. The artifact cache does not expose its campaign results, so
// records are counted where they all land: every campaign of this shape is
// below the engine's index limit and is ingested into eng.Store, which
// reports its point count only by dropping the points.
func verifyReportAll(r *run, output []byte) error {
	for _, a := range scenario.Artifacts() {
		sep := "\n" + a + "\n" + strings.Repeat("=", len(a)) + "\n"
		if a != "all" && !bytes.Contains(output, []byte(sep)) {
			r.problemf("report all output has no %q section", a)
		}
	}
	for _, ref := range r.w.refs(r) {
		p, err := r.eng.PlanRef(ref) // selection is memoized: no new work
		if err != nil {
			return err
		}
		r.attempted += scheduledTests(p)
	}
	records := r.eng.Store.DropBefore(core.CampaignStart.AddDate(100, 0, 0))
	r.work = float64(records)
	r.failed = r.attempted - records
	if r.failed != 0 {
		r.problemf("report all stored %d records for %d scheduled tests", records, r.attempted)
	}
	return nil
}

func timedCampaignStream(r *run, out io.Writer) error {
	ref := r.w.refs(r)[0]
	p, err := r.eng.PlanRef(ref)
	if err != nil {
		return err
	}
	res, err := r.eng.RunPlanned(p)
	if err != nil {
		return err
	}
	r.res = res
	r.checkReport(p, res)
	r.work = float64(res.NumRecords())
	if res.Log == nil {
		r.problemf("campaign of %d records did not stream through the record log", res.NumRecords())
	}
	if err := renderAnalysis(r, res, out, false); err != nil {
		return err
	}
	ck, err := checkpoint.Load(r.options().CheckpointDir)
	if err != nil {
		return err
	}
	replayed := 0
	if err := ck.Replay(func(analysis.Measurement) { replayed++ }); err != nil {
		return err
	}
	fmt.Fprintf(out, "checkpoint: %d records at hour %d\n", replayed, ck.Meta.Progress.NextHour)
	if replayed != res.NumRecords() {
		r.problemf("final checkpoint replays %d records, campaign produced %d", replayed, res.NumRecords())
	}
	return nil
}

// renderAnalysis renders the per-campaign analyses of the streaming
// workloads: the congestion report, the Fig. 2 sweep and the Fig. 4 panel,
// plus Fig. 6 and Fig. 8 when full is set.
func renderAnalysis(r *run, res *core.CampaignResult, out io.Writer, full bool) error {
	rep, err := clasp.NewFromCore(r.eng).CongestionReport(res)
	if err != nil {
		return err
	}
	clasp.WriteReport(out, rep)
	core.WriteFig2(out, core.Fig2(map[string]*core.CampaignResult{res.Region: res}, nil, r.procs))
	d, err := core.Fig4(res, bgp.Premium)
	if err != nil {
		return err
	}
	core.WriteFig4(out, d)
	if full {
		core.WriteFig6(out, res.Region, r.eng.Fig6(res, bgp.Premium, 10))
		core.WriteFig8(out, res.Region, r.eng.Fig8(res, bgp.Premium))
	}
	return nil
}

func timedSelectPaper(r *run, out io.Writer) error {
	for _, region := range core.TopologyRegions {
		sel, err := r.eng.SelectTopologyServers(region)
		if err != nil {
			return err
		}
		r.attempted++
		r.work += float64(sel.PilotLinks.LinkCount())
		fmt.Fprintf(out, "%s: pilot links %d, server links %d, selected %d\n",
			region, sel.PilotLinks.LinkCount(), sel.ServerLinkCount, len(sel.Selected))
	}
	for _, region := range core.DifferentialRegions {
		diff, _, err := r.eng.SelectDifferentialServers(region, r.minSamples())
		if err != nil {
			return err
		}
		r.attempted++
		core.WriteDifferentialSelection(out, region, diff)
	}
	return scenario.RenderArtifact(out, clasp.NewFromCore(r.eng), scenario.NewArtifactCache(), "table1", 0, 0)
}

func setupAnalysisReplay(r *run) error {
	if err := setupEngine(r); err != nil {
		return err
	}
	p, err := r.eng.PlanRef(r.w.refs(r)[0])
	if err != nil {
		return err
	}
	r.res, err = r.eng.RunPlanned(p)
	if err != nil {
		return err
	}
	r.checkReport(p, r.res)
	return nil
}

func timedAnalysisReplay(r *run, out io.Writer) error {
	for i := 0; i < r.w.shape.rounds; i++ {
		if err := renderAnalysis(r, r.res, out, true); err != nil {
			return err
		}
		r.work += float64(r.res.NumRecords())
	}
	return nil
}
