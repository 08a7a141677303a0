package main

// metricDef names one metric the benchmark reports. The lists below and
// ../BENCHMARK.json must agree name for name (bench_test.go checks).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median

	// best makes the metric's value the best of the repetitions instead of
	// their median. Timings use it: on a shared host, contention only ever
	// adds time, so the fastest repetition is the steadiest estimate of
	// what the code costs (README.md has the seed-box numbers).
	best bool

	// of reads an end-to-end metric out of one child's result.
	of func(*childResult) float64
}

// endToEnd is what a user of the platform sees, the same five on every
// workload.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25, best: true,
		of: func(r *childResult) float64 { return r.WallS }},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25, best: true,
		of: func(r *childResult) float64 { return r.CPUS }},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.20,
		of: func(r *childResult) float64 { return r.PeakRSSMB }},
	{Name: "work_per_s", Unit: "unit/s", Better: "higher", Bound: 0.25, best: true,
		of: func(r *childResult) float64 { return r.Work / r.WallS }},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, best: true,
		of: func(r *childResult) float64 { return r.SetupS }},
}

// perLayer is one layer's share, from the traced run (staged pipeline and
// replay probes) except runtime.*, which every child counts around its
// timed section. A layer that does no work on a workload reports 0.
var perLayer = []metricDef{
	{Name: "topology.new_s", Unit: "s", Better: "lower"},
	{Name: "topology.links", Unit: "count", Better: "lower"},
	{Name: "bgp.new_router_s", Unit: "s", Better: "lower"},
	{Name: "bgp.warm_s", Unit: "s", Better: "lower"},
	{Name: "bgp.warm_dsts", Unit: "count", Better: "lower"},
	{Name: "selection.topology_s", Unit: "s", Better: "lower"},
	{Name: "selection.differential_s", Unit: "s", Better: "lower"},
	{Name: "selection.calls", Unit: "count", Better: "lower"},
	{Name: "selection.servers_selected", Unit: "count", Better: "higher"},
	{Name: "selection.pilot_links", Unit: "count", Better: "higher"},
	{Name: "core.new_s", Unit: "s", Better: "lower"},
	{Name: "core.run_planned_s", Unit: "s", Better: "lower"},
	{Name: "core.campaigns", Unit: "count", Better: "lower"},
	{Name: "netsim.measure_s", Unit: "s", Better: "lower"},
	{Name: "netsim.measure_calls", Unit: "count", Better: "lower"},
	{Name: "netsim.measure_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.measure_p99_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.replay_mismatch", Unit: "count", Better: "lower"},
	{Name: "netsim.measure_cold_ns", Unit: "ns", Better: "lower"},
	{Name: "someta.snap_ns", Unit: "ns", Better: "lower"},
	{Name: "someta.snap_s_est", Unit: "s", Better: "lower"},
	{Name: "tsdb.ingest_s", Unit: "s", Better: "lower"},
	{Name: "tsdb.points", Unit: "count", Better: "lower"},
	{Name: "tsdb.series", Unit: "count", Better: "lower"},
	{Name: "tsdb.sealed_blocks", Unit: "count", Better: "lower"},
	{Name: "tsdb.block_bytes", Unit: "B", Better: "lower"},
	{Name: "analysis.log_append_s", Unit: "s", Better: "lower"},
	{Name: "analysis.log_bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "analysis.log_spill_s", Unit: "s", Better: "lower"},
	{Name: "analysis.log_decode_s", Unit: "s", Better: "lower"},
	{Name: "analysis.group_stream_s", Unit: "s", Better: "lower"},
	{Name: "analysis.group_slice_s", Unit: "s", Better: "lower"},
	{Name: "analysis.stream_over_slice", Unit: "ratio", Better: "lower"},
	{Name: "analysis.perf_points_s", Unit: "s", Better: "lower"},
	{Name: "analysis.records_scanned", Unit: "count", Better: "lower"},
	{Name: "congestion.partition_s", Unit: "s", Better: "lower"},
	{Name: "congestion.sweep_s", Unit: "s", Better: "lower"},
	{Name: "congestion.pairs", Unit: "count", Better: "higher"},
	{Name: "checkpoint.commit_s", Unit: "s", Better: "lower"},
	{Name: "checkpoint.commits", Unit: "count", Better: "lower"},
	{Name: "checkpoint.commit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.load_replay_s", Unit: "s", Better: "lower"},
	{Name: "scenario.render_warm_s", Unit: "s", Better: "lower"},
	{Name: "scenario.output_bytes", Unit: "B", Better: "lower"},
	{Name: "orchestrator.self_est_s", Unit: "s", Better: "lower"},
	{Name: "orchestrator.tests", Unit: "count", Better: "higher"},
	{Name: "orchestrator.rounds", Unit: "count", Better: "lower"},
	{Name: "orchestrator.vms", Unit: "count", Better: "lower"},
	{Name: "orchestrator.retried", Unit: "count", Better: "lower"},
	{Name: "orchestrator.dropped", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_gb", Unit: "GB", Better: "lower"},
	{Name: "runtime.mallocs_m", Unit: "1e6", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "core.sched.cores_speedup", Unit: "ratio", Better: "higher"},
	{Name: "trace.root_s", Unit: "s", Better: "lower"},
	{Name: "trace.attributed_frac", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}
