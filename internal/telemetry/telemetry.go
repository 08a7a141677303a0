// Package telemetry is the live side of CLASP's self-observation: it serves
// the point-in-time metrics CLASP's subsystems already publish in the obs
// registry while a process runs.
//
//   - HTTPMetrics is hijack-safe handler middleware recording per-route /
//     per-status request-duration histograms (speedtestd's serving path).
//   - ProgressHandler renders the orchestrator's campaign gauges as a live
//     progress document (/progress).
//   - Introspection wires /metrics, /progress and net/http/pprof onto a
//     mux, and StartDebug serves that mux on a side listener (clasp
//     -debug-addr).
//   - Window / HistogramWindow.Quantile recover latency percentiles from
//     two snapshots of one histogram — the shape loadgen consumes.
//
// Nothing here feeds back into measurement arithmetic: handlers read the
// registry through Registry.Samples and WriteProm (lock-free for updaters),
// preserving the bit-identical-results invariant pinned by
// TestMetricsDoNotChangeResults.
package telemetry
