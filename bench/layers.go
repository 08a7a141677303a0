package main

import (
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
	"github.com/clasp-measurement/clasp/internal/someta"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// The traced run. It first makes the workload's exact end-to-end call as
// the root span, then rebuilds the same work on a fresh engine as a staged
// pipeline - topology.New, bgp.NewRouter, core.New over that substrate, and
// per campaign PlanRef, Router.Warm, RunPlanned - with a span around each
// call into a layer. After each campaign, probes replay its real records
// through one layer in isolation (Sim.Measure, StoreSink, RecordLog, the
// cursor kernels, congestion partitions, checkpoint commits). Probes run
// with different cache and GC state than the inline code, so their times
// are estimates; the README says so. Everything here references only
// long-lived API: no SliceSink, CampaignPrep or CampaignResult.Records.

// Orchestrator defaults every campaign measures with (core passes none of
// its own); the Measure probe must rebuild the same TestSpec or
// netsim.replay_mismatch reports that it timed a different call.
const (
	testDurationSec = 15
	vmDownMbps      = 1000
	vmUpMbps        = 100
)

// snapProbeCalls is how many someta snapshots the probe averages over.
const snapProbeCalls = 2000

// executeTraced is the traced child's body.
func executeTraced(r *run, traceOut string) (*childResult, error) {
	tr := newTracer(r.w.name)
	res, err := execute(r, tr)
	if err != nil {
		return nil, err
	}
	m := res.Layers
	m["scenario.output_bytes"] = float64(res.OutputBytes)
	if r.w.again != nil {
		if _, err := tr.do("scenario.render_warm", func() error { return r.w.again(r, io.Discard) }); err != nil {
			return nil, err
		}
	}
	if r.res != nil {
		r.res.Close()
	}
	r.eng, r.cache, r.res = nil, nil, nil
	runtime.GC()

	st := &staged{
		run: &run{w: r.w, seed: r.seed, procs: 1, tmp: filepath.Join(r.tmp, "staged")},
		tr:  tr,
		m:   m,
	}
	if err := os.Mkdir(st.run.tmp, 0o755); err != nil {
		return nil, err
	}
	if err := st.pipeline(); err != nil {
		return nil, fmt.Errorf("%s staged pipeline: %w", r.w.name, err)
	}
	st.spanMetrics()
	res.Problems = append(res.Problems, st.run.problems...)
	if n := m["netsim.replay_mismatch"]; n > 0 {
		res.Problems = append(res.Problems, fmt.Sprintf("%v replayed Measure calls differ from the recorded results", n))
	}
	return res, writeSpans(traceOut, tr.spans)
}

// staged is the state of the staged pipeline: the fresh substrate and
// engine, the tracer, and the metric map the probes fill.
type staged struct {
	run *run
	tr  *tracer
	m   map[string]float64

	topo   *topology.Topology
	router *bgp.Router
	eng    *core.CLASP
	store  *tsdb.Store // shared by every indexed campaign, like eng.Store

	measureNs []int32   // one entry per replayed Measure call
	coldSpecs []coldKey // first-touch Measure targets
	vmRounds  int       // someta snapshots the campaigns took: sum of VMs x hours
	commitMs  []float64 // one entry per checkpoint commit
}

type coldKey struct {
	region string
	server *topology.Server
	tier   bgp.Tier
}

func (st *staged) pipeline() error {
	r, tr := st.run, st.tr
	opts := r.options()
	tcfg := topology.PaperScaleConfig()
	tcfg.Scale, tcfg.Seed = opts.Scale, opts.Seed
	var err error
	if _, err = tr.do("topology.new", func() error { st.topo, err = topology.New(tcfg); return err }); err != nil {
		return err
	}
	st.m["topology.links"] = float64(len(st.topo.Links()))
	tr.do("bgp.new_router", func() error { st.router = bgp.NewRouter(st.topo); return nil })
	opts.Substrate = &core.Substrate{Topo: st.topo, Router: st.router}
	if _, err = tr.do("core.new", func() error { st.eng, err = core.New(opts); return err }); err != nil {
		return err
	}
	r.eng = st.eng
	st.store = tsdb.NewStore()

	if r.w.refs == nil {
		if err := st.selections(); err != nil {
			return err
		}
	} else {
		for _, ref := range r.w.refs(r) {
			if err := st.campaign(ref); err != nil {
				return err
			}
		}
	}
	if err := st.coldMeasure(opts); err != nil {
		return err
	}
	st.snapProbe()
	return nil
}

// selections is the staged body of a workload that measures no campaign
// (select_paper): the nine selection calls.
func (st *staged) selections() error {
	for _, region := range core.TopologyRegions {
		_, err := st.tr.do("selection.topology", func() error {
			sel, err := st.eng.SelectTopologyServers(region)
			if err == nil {
				st.selected(len(sel.Selected), sel.PilotLinks.LinkCount())
				for _, s := range sel.Selected {
					st.coldSpecs = append(st.coldSpecs, coldKey{region, s.Server, bgp.Premium})
				}
			}
			return err
		})
		if err != nil {
			return err
		}
	}
	for _, region := range core.DifferentialRegions {
		_, err := st.tr.do("selection.differential", func() error {
			sel, _, err := st.eng.SelectDifferentialServers(region, st.run.minSamples())
			st.selected(len(sel), 0)
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (st *staged) selected(servers, pilotLinks int) {
	st.m["selection.servers_selected"] += float64(servers)
	st.m["selection.pilot_links"] += float64(pilotLinks)
}

// campaign plans, warms and runs one campaign under spans, then probes the
// layers with its records.
func (st *staged) campaign(ref core.CampaignRef) error {
	r, tr, m := st.run, st.tr, st.m
	var plan *core.PlannedCampaign
	var err error
	if _, err = tr.do("selection."+ref.Kind, func() error { plan, err = st.eng.PlanRef(ref); return err }); err != nil {
		return err
	}
	pilot := 0
	if plan.TopoSel != nil {
		pilot = plan.TopoSel.PilotLinks.LinkCount()
	}
	st.selected(len(plan.Servers), pilot)

	// The orchestrator warms the same destinations when the campaign
	// starts; warming them here first makes that a cache hit and puts the
	// cost under its own span.
	dsts := []bgp.ASN{st.topo.Cloud.ASN}
	seen := map[bgp.ASN]bool{st.topo.Cloud.ASN: true}
	for _, srv := range plan.Servers {
		if !seen[srv.ASN] {
			seen[srv.ASN] = true
			dsts = append(dsts, srv.ASN)
		}
		for _, tier := range plan.Tiers {
			st.coldSpecs = append(st.coldSpecs, coldKey{ref.Region, srv, tier})
		}
	}
	tr.do("bgp.warm", func() error { st.router.Warm(dsts, 1); return nil })
	m["bgp.warm_dsts"] += float64(len(dsts))

	seriesBefore := st.eng.Store.SeriesCount()
	var res *core.CampaignResult
	if _, err = tr.do("core.run_planned", func() error { res, err = st.eng.RunPlanned(plan); return err }); err != nil {
		return err
	}
	defer res.Close()
	indexed := st.eng.Store.SeriesCount() > seriesBefore
	r.checkReport(plan, res)
	rep := res.Report
	m["orchestrator.tests"] += float64(rep.Tests)
	m["orchestrator.rounds"] += float64(rep.Hours)
	m["orchestrator.vms"] += float64(rep.VMs)
	m["orchestrator.retried"] += float64(rep.Retried)
	m["orchestrator.dropped"] += float64(rep.Dropped)
	st.vmRounds += rep.VMs * rep.Hours

	_, err = tr.do("probes", func() error { return st.probes(plan, res, indexed) })
	return err
}

// probes replays one campaign's records through each layer in isolation.
func (st *staged) probes(plan *core.PlannedCampaign, res *core.CampaignResult, indexed bool) error {
	r, tr, m := st.run, st.tr, st.m
	recs := make([]analysis.Measurement, 0, res.NumRecords())
	for c := res.Cursor(); ; {
		batch := c.Next()
		if batch == nil {
			break
		}
		recs = append(recs, batch...) // a batch is only valid until the next call
	}

	// netsim: the same Measure calls the campaign made, timed one by one.
	var measured time.Duration
	mismatches := 0
	tr.do("probe.netsim.measure", func() error {
		for i := range recs {
			rec := &recs[i]
			spec := netsim.TestSpec{
				Region: rec.Region, Server: st.topo.Server(rec.ServerID), Tier: rec.Tier, Dir: rec.Dir, Time: rec.Time,
				DurationSec: testDurationSec, VMDownMbps: vmDownMbps, VMUpMbps: vmUpMbps,
			}
			t0 := time.Now()
			got, err := st.eng.Sim.Measure(spec)
			d := time.Since(t0)
			st.measureNs = append(st.measureNs, int32(min(d, 1<<31-1)))
			measured += d
			if err != nil || got.ThroughputMbps != rec.Mbps || got.RTTms != rec.RTTms || got.LossRate != rec.Loss {
				mismatches++
			}
		}
		return nil
	})
	m["netsim.measure_s"] += measured.Seconds()
	m["netsim.replay_mismatch"] += float64(mismatches)
	m["netsim.measure_calls"] += float64(len(recs))

	// tsdb: campaigns the engine indexed go through a StoreSink of their
	// own into one store shared by the whole command, so a second campaign
	// in a region reopens the series the first one sealed.
	if indexed {
		sink := &orchestrator.StoreSink{Store: st.store}
		d, _ := tr.do("probe.tsdb.ingest", func() error {
			for i := range recs {
				sink.Record(recs[i])
			}
			return nil
		})
		m["tsdb.ingest_s"] += d.Seconds()
		blocks, _, bytes := st.store.BlockStats()
		m["tsdb.points"] += float64(len(recs))
		m["tsdb.series"] = float64(st.store.SeriesCount())
		m["tsdb.sealed_blocks"], m["tsdb.block_bytes"] = float64(blocks), float64(bytes)
	}

	// analysis: the cursor kernels over the in-memory records and, for a
	// streaming campaign, over a record log rebuilt from them.
	slice := func() analysis.Cursor { return analysis.NewSliceCursor(recs) }
	perfCursor := slice
	if r.w.streams() {
		log, err := st.logProbe(plan, recs)
		if err != nil {
			return err
		}
		defer log.Close()
		perfCursor = log.Cursor
		d, _ := tr.do("probe.analysis.group_stream", func() error {
			analysis.GroupSeriesWithServerCursor(log.Cursor(), netsim.Download, bgp.Premium)
			return nil
		})
		m["analysis.group_stream_s"] += d.Seconds()
		m["analysis.records_scanned"] += float64(len(recs))
	}
	var series []analysis.SeriesWithServer
	d, _ := tr.do("probe.analysis.group_slice", func() error {
		series = analysis.GroupSeriesWithServerCursor(slice(), netsim.Download, bgp.Premium)
		return nil
	})
	m["analysis.group_slice_s"] += d.Seconds()
	d, _ = tr.do("probe.analysis.perf_points", func() error { analysis.PerfPointsCursor(perfCursor()); return nil })
	m["analysis.perf_points_s"] += d.Seconds()
	m["analysis.records_scanned"] += 2 * float64(len(recs))

	// congestion: day partitions of every grouped series, then the Fig. 2
	// threshold sweeps over them.
	parts := make([]*congestion.Partition, len(series))
	d, _ = tr.do("probe.congestion.partition", func() error {
		for i := range series {
			parts[i] = congestion.NewPartition(series[i].Series)
		}
		return nil
	})
	m["congestion.partition_s"] += d.Seconds()
	m["congestion.pairs"] += float64(len(series))
	d, _ = tr.do("probe.congestion.sweep", func() error {
		grid := core.DefaultThresholdGrid()
		congestion.SweepDaysPartitioned(parts, grid, 0)
		congestion.SweepHoursPartitioned(parts, grid, 0)
		return nil
	})
	m["congestion.sweep_s"] += d.Seconds()
	return nil
}

// logProbe rebuilds a streaming campaign's record log from its records,
// committing a checkpoint every checkpointEvery rounds' worth of them as
// the campaign did, then spills it and reads it back. It returns the
// spilled log for the kernel probes.
func (st *staged) logProbe(plan *core.PlannedCampaign, recs []analysis.Measurement) (*analysis.RecordLog, error) {
	r, tr, m := st.run, st.tr, st.m
	log := analysis.NewRecordLog()
	dir := filepath.Join(r.tmp, "ck-probe")
	ckw, err := checkpoint.NewWriter(dir, plan.Camp, log)
	if err != nil {
		return nil, err
	}
	commits := max(plan.Camp.Days*24/checkpointEvery, 1)
	per := max(len(recs)/commits, 1)
	_, err = tr.do("probe.analysis.log_append+checkpoint.commit", func() error {
		for lo := 0; lo < len(recs); lo += per {
			hi := min(lo+per, len(recs))
			t0 := time.Now()
			for i := lo; i < hi; i++ {
				log.Append(recs[i])
			}
			t1 := time.Now()
			if err := ckw.Commit(orchestrator.Progress{NextHour: hi / per * checkpointEvery}); err != nil {
				return err
			}
			t2 := time.Now()
			m["analysis.log_append_s"] += t1.Sub(t0).Seconds()
			m["checkpoint.commit_s"] += t2.Sub(t1).Seconds()
			st.commitMs = append(st.commitMs, float64(t2.Sub(t1))/1e6)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	m["checkpoint.commits"] = float64(len(st.commitMs))
	m["checkpoint.bytes"] += float64(dirSize(dir))

	d, err := tr.do("probe.analysis.log_spill", func() error { return log.Spill(r.tmp) })
	if err != nil {
		return nil, err
	}
	m["analysis.log_spill_s"] += d.Seconds()
	m["analysis.log_bytes_per_record"] = float64(log.CompressedBytes()) / float64(max(log.Len(), 1))

	d, _ = tr.do("probe.analysis.log_decode", func() error {
		for c := log.Cursor(); c.Next() != nil; {
		}
		return nil
	})
	m["analysis.log_decode_s"] += d.Seconds()

	replayed := 0
	d, err = tr.do("probe.checkpoint.load_replay", func() error {
		ck, err := checkpoint.Load(dir)
		if err != nil {
			return err
		}
		return ck.Replay(func(analysis.Measurement) { replayed++ })
	})
	if err != nil {
		return nil, err
	}
	m["checkpoint.load_replay_s"] += d.Seconds()
	if replayed != len(recs) {
		r.problemf("probe checkpoint replays %d records of %d", replayed, len(recs))
	}
	return log, nil
}

func dirSize(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil // a file that vanished is not worth failing the probe for
	})
	return n
}

// coldMeasure times the first Measure toward each (region, server, tier,
// direction) on an engine whose flow caches and routing trees are cold.
func (st *staged) coldMeasure(opts core.Options) error {
	if len(st.coldSpecs) == 0 {
		return nil
	}
	opts.Substrate = &core.Substrate{Topo: st.topo, Router: bgp.NewRouter(st.topo)}
	cold, err := core.New(opts)
	if err != nil {
		return err
	}
	var total time.Duration
	calls := 0
	seen := make(map[coldKey]bool)
	_, err = st.tr.do("probe.netsim.measure_cold", func() error {
		for _, k := range st.coldSpecs {
			if seen[k] {
				continue
			}
			seen[k] = true
			for _, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
				spec := netsim.TestSpec{
					Region: k.region, Server: k.server, Tier: k.tier, Dir: dir, Time: core.CampaignStart,
					DurationSec: testDurationSec, VMDownMbps: vmDownMbps, VMUpMbps: vmUpMbps,
				}
				t0 := time.Now()
				if _, err := cold.Sim.Measure(spec); err != nil {
					return err
				}
				total += time.Since(t0)
				calls++
			}
		}
		return nil
	})
	st.m["netsim.measure_cold_ns"] = float64(total.Nanoseconds()) / float64(calls)
	return err
}

// snapProbe times the SoMeta snapshot every VM takes every round and
// scales it to the snapshots the campaigns took.
func (st *staged) snapProbe() {
	if st.vmRounds == 0 {
		return
	}
	c := someta.NewCollector("bench-probe", &someta.LocalProbe{})
	d, _ := st.tr.do("probe.someta.snap", func() error {
		for i := 0; i < snapProbeCalls; i++ {
			c.Snap(core.CampaignStart)
		}
		return nil
	})
	ns := float64(d.Nanoseconds()) / snapProbeCalls
	st.m["someta.snap_ns"] = ns
	st.m["someta.snap_s_est"] = ns * float64(st.vmRounds) / 1e9
}

// spanMetrics derives the span-based metrics once the pipeline is done.
func (st *staged) spanMetrics() {
	tr, m := st.tr, st.m
	sec := func(name string) float64 { return tr.total(name).Seconds() }
	m["topology.new_s"] = sec("topology.new")
	m["bgp.new_router_s"] = sec("bgp.new_router")
	m["bgp.warm_s"] = sec("bgp.warm")
	m["selection.topology_s"] = sec("selection.topology")
	m["selection.differential_s"] = sec("selection.differential")
	m["selection.calls"] = float64(tr.count("selection.topology") + tr.count("selection.differential"))
	m["core.new_s"] = sec("core.new")
	m["core.run_planned_s"] = sec("core.run_planned")
	m["core.campaigns"] = float64(tr.count("core.run_planned"))
	m["scenario.render_warm_s"] = sec("scenario.render_warm")

	if n := len(st.measureNs); n > 0 {
		sort.Slice(st.measureNs, func(i, j int) bool { return st.measureNs[i] < st.measureNs[j] })
		m["netsim.measure_p50_ns"] = float64(st.measureNs[n/2])
		m["netsim.measure_p99_ns"] = float64(st.measureNs[n*99/100])
	}
	if n := len(st.commitMs); n > 0 {
		sort.Float64s(st.commitMs)
		m["checkpoint.commit_p50_ms"] = st.commitMs[n/2]
	}
	if s := m["analysis.group_slice_s"]; s > 0 && m["analysis.group_stream_s"] > 0 {
		m["analysis.stream_over_slice"] = m["analysis.group_stream_s"] / s
	}
	if rp := m["core.run_planned_s"]; rp > 0 {
		m["orchestrator.self_est_s"] = rp - m["netsim.measure_s"] - m["someta.snap_s_est"] -
			m["tsdb.ingest_s"] - m["analysis.log_append_s"] - m["checkpoint.commit_s"]
	}
	root := sec("root")
	m["trace.root_s"] = root
	m["trace.attributed_frac"] = (m["topology.new_s"] + m["bgp.new_router_s"] + m["bgp.warm_s"] + m["core.new_s"] +
		m["selection.topology_s"] + m["selection.differential_s"] + m["core.run_planned_s"] + m["scenario.render_warm_s"]) / root
}

// traceWorkload makes the runs the per-layer metrics need and returns the
// metrics and the runs it made: an ordinary run on the workload's cores
// (reps, when the caller already has them, stand in for it), an ordinary
// run on one core, and the traced run on one core.
func traceWorkload(cfg config, w *workload, procs int, reps []*childResult) (map[string]float64, []*childResult, error) {
	var extra []*childResult
	child := func(procs int, traceOut string) (*childResult, error) {
		res, err := runChild(cfg, w, procs, traceOut)
		if err == nil {
			extra = append(extra, res)
		}
		return res, err
	}
	if len(reps) == 0 {
		fmt.Fprintf(os.Stderr, "bench: %s untraced run on %d core(s)\n", w.name, procs)
		res, err := child(procs, "")
		if err != nil {
			return nil, nil, err
		}
		reps = []*childResult{res}
	}
	oneCore := reps[0]
	if procs != 1 {
		fmt.Fprintf(os.Stderr, "bench: %s untraced run on 1 core\n", w.name)
		var err error
		if oneCore, err = child(1, ""); err != nil {
			return nil, nil, err
		}
	}
	fmt.Fprintf(os.Stderr, "bench: %s traced run\n", w.name)
	traced, err := child(1, filepath.Join(outDir, "trace-"+w.name+".jsonl"))
	if err != nil {
		return nil, nil, err
	}

	m := traced.Layers
	median := func(f func(*childResult) float64) float64 {
		vals := make([]float64, len(reps))
		for i, r := range reps {
			vals[i] = f(r)
		}
		return summarize(metricDef{}, vals).Median
	}
	for _, k := range []string{"runtime.gc_cpu_frac", "runtime.alloc_gb", "runtime.mallocs_m", "runtime.gc_cycles"} {
		m[k] = median(func(r *childResult) float64 { return r.Layers[k] })
	}
	m["core.sched.cores_speedup"] = oneCore.WallS / median(func(r *childResult) float64 { return r.WallS })
	untraced := oneCore.SetupS + oneCore.WallS
	m["trace.overhead_frac"] = (m["trace.root_s"] - untraced) / untraced
	return m, extra, nil
}
