GO ?= go

.PHONY: build test race vet fmt-check cover-check bench bench-all bench-smoke bench-build obs-smoke fault-smoke analysis-smoke scenario-smoke block-smoke loadgen-smoke resume-smoke bench-check ci

build:
	$(GO) build ./...

# The second line reruns the cross-core tests on one core and on two: every
# other gate runs at one GOMAXPROCS or with pacing, which is how a second
# core once cost 70 % wall-clock unnoticed.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,2 -run 'NeverStopsTheWorld|ConcurrentSelections|ParallelMatchesSequential|ResumeAtEveryHour|ReportAllByteIdentical|SharedFlowInterleavedDays' ./internal/netsim/ ./internal/orchestrator/ ./internal/core/ ./internal/scenario/

vet:
	$(GO) vet ./...

# fmt-check fails the build when any file is not gofmt-clean, listing the
# offenders. CI runs it so formatting never drifts into review.
fmt-check:
	@files=$$(gofmt -l .); \
	if [ -n "$$files" ]; then \
		echo "fmt-check: these files need gofmt:"; echo "$$files"; exit 1; \
	fi; \
	echo "fmt-check: OK"

race:
	$(GO) test -race ./...

# cover-check enforces the statement-coverage floor on the checkpoint
# package — the code whose whole job is surviving kills, where an
# untested branch is a lost campaign. The floor is a checked-in constant:
# raising coverage ratchets it, lowering it is a reviewed decision.
CHECKPOINT_COVER_MIN = 80.0

cover-check:
	@profile=$$(mktemp); \
	$(GO) test -count=1 -coverprofile=$$profile ./internal/checkpoint/ >/dev/null || { rm -f $$profile; exit 1; }; \
	total=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
	rm -f $$profile; \
	awk -v got="$$total" -v min="$(CHECKPOINT_COVER_MIN)" 'BEGIN { \
		if (got+0 < min+0) { printf "cover-check: internal/checkpoint coverage %.1f%% is below the %.1f%% floor\n", got, min; exit 1 } \
		printf "cover-check: OK: internal/checkpoint coverage %.1f%% (floor %.1f%%)\n", got, min }'

# The hot-path record's benchmarks and the packages they live in, shared by
# bench and bench-check.
HOTPATH_BENCH = BenchmarkMeasure|BenchmarkCampaignRound|BenchmarkInsert|BenchmarkStoreSinkRecord|BenchmarkSelectTopologyPaperScale
HOTPATH_PKGS = ./internal/netsim/ ./internal/tsdb/ ./internal/orchestrator/ ./internal/selection/

# bench runs the hot-path benchmarks (steady-state Measure by spec and by
# flow handle, cold Measure, one whole campaign round, sharded TSDB ingest
# through the map API, the campaign's own ingest path through StoreSink, and
# one paper-scale topology selection) and records
# ns/op and allocs/op — joined with the pre-overhaul baselines from
# BENCH_baseline.txt — in BENCH_hotpath.json.
# A second pass records the observability numbers in BENCH_obs.json:
# MeasureWarm vs MeasureWarmObs is the metrics-enabled overhead (budget 5%),
# and the BenchmarkObs* entries pin the disabled paths at 0 allocs/op.
# The fourth pass records the analysis-engine numbers in BENCH_analysis.json,
# joined with the pre-engine baselines from BENCH_analysis_baseline.txt; it
# runs -count=3 (benchjson keeps the min) because the ms-scale analysis
# kernels see far fewer iterations per run than the ns-scale hot-path ones.
# The fifth pass records the columnar-block numbers in BENCH_tsdb.json:
# block encode/decode (columns to block and back) ns/op with the compressed
# bytes/sample, record-log
# append with bytes/record (the ≥4x win over the 88-byte struct), and the
# streaming cursor kernels beside their in-memory counterparts in
# BENCH_analysis.json.
bench:
	$(GO) test -run=^$$ -bench='$(HOTPATH_BENCH)' -benchmem $(HOTPATH_PKGS) | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson -baseline BENCH_baseline.txt -out BENCH_hotpath.json
	$(GO) test -run=^$$ -bench='BenchmarkObs|BenchmarkMeasureWarm' -benchmem \
		./internal/obs/ ./internal/netsim/ | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson \
		-note "observability: MeasureWarm vs MeasureWarmObs is the metrics-enabled overhead on the steady-state campaign path (budget 5%); ObsDisabled* pin the disabled paths at 0 allocs/op" \
		-out BENCH_obs.json
	$(GO) test -run=^$$ -bench='BenchmarkFaults' -benchmem \
		./internal/netsim/ ./internal/faults/ | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson \
		-note "fault injection: FaultsDisabledMeasureCtx vs MeasureWarm (BENCH_obs.json) is the nil-injector overhead on the fault-free campaign path, budget 0 allocs/op (pinned by TestMeasureCtxDisabledPathZeroAlloc); FaultsBeforeMeasureMiss is the per-test decision cost under an active profile; FaultsBackoff is the per-retry schedule computation" \
		-out BENCH_faults.json
	$(GO) test -run=^$$ -bench='BenchmarkAnalysis' -benchmem -count=3 \
		./internal/analysis/ ./internal/congestion/ . | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson -baseline BENCH_analysis_baseline.txt \
		-note "analysis engine: grouping and sweep kernels and the end-to-end CongestionReport; Speedup joins the pre-engine numbers in BENCH_analysis_baseline.txt (map-of-slices grouping, per-threshold re-splits, serial report)" \
		-out BENCH_analysis.json
	$(GO) test -run=^$$ -bench='BenchmarkBlock' -benchmem -count=3 \
		./internal/tsdb/ ./internal/analysis/ | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson \
		-note "columnar blocks: BlockEncode seals one 512-point columnar tail and BlockDecode reopens it into caller-owned, reused columns (0 allocs/op; it built 512 Points with a map each, 1,039 allocs/op, until the tail went columnar in PR 17; Query still pays one map per point it returns); extra bytes/sample is the compressed footprint, against 32 B for a raw ts+3-field sample, which is also what a tail row costs; BlockRecordLogAppend is streaming campaign ingest (extra bytes/record vs the 88 B in-memory Measurement — the >=4x compression gate); BlockStream* are the cursor kernels over a compressed log, comparable to their in-memory twins in BENCH_analysis.json" \
		-out BENCH_tsdb.json

# bench-all runs every benchmark in the repo.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke executes the hot-path benchmarks a fixed small number of
# iterations — a CI check that they still compile and run, not a timing.
# The paper-scale selection runs once: an iteration is a whole region's
# selection, not a nanosecond-scale call.
bench-smoke:
	$(GO) test -run=^$$ -bench='BenchmarkMeasure|BenchmarkCampaignRound|BenchmarkInsert|BenchmarkStoreSinkRecord' -benchtime=100x \
		./internal/netsim/ ./internal/tsdb/ ./internal/orchestrator/
	$(GO) test -run=^$$ -bench='BenchmarkSelectTopologyPaperScale' -benchtime=1x ./internal/selection/

# bench-build vets and tests the repository benchmark (bench/, the command
# BENCHMARK.json names). It is a module of its own that imports
# internal/..., so `go build ./...` and `go test ./...` here never compile
# it; this target is what catches an API change that breaks the benchmark.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# obs-smoke runs a tiny metrics-enabled campaign and asserts the Prometheus
# dump parses, contains the core series (cache hit/miss, measure latency,
# shard inserts, campaign progress), has no duplicate or unregistered
# series, and agrees with the JSON snapshot.
obs-smoke:
	$(GO) run ./internal/tools/obssmoke

# analysis-smoke runs the same campaign and congestion report at
# parallelism 1 and 4 and fails unless the rendered reports are
# byte-identical — the analysis engine's deterministic-merge gate.
analysis-smoke:
	$(GO) run ./internal/tools/analysissmoke

# fault-smoke runs a small end-to-end campaign under the flaky-vm fault
# profile through the public clasp API and asserts the platform degrades
# gracefully: faults fire, the campaign completes, and the partial-round
# accounting balances (completed + dropped = scheduled).
fault-smoke:
	$(GO) run ./internal/tools/faultsmoke

# scenario-smoke runs the catalog's small-smoke scenario solo and inside a
# two-scenario fleet and fails unless both outputs are byte-identical to
# the committed golden under examples/scenarios/ — the declarative-layer
# regression gate.
scenario-smoke:
	$(GO) run ./internal/tools/scenariosmoke

# block-smoke is the storage-determinism gate: it runs the small-smoke
# scenario with the record-memory budget and spill enabled and diffs the
# report against the committed golden, then crosses the budget on a longer
# variant (budgeted vs unbounded must be byte-identical) and asserts an
# over-budget campaign really does compress and spill its records.
block-smoke:
	$(GO) run ./internal/tools/blocksmoke

# loadgen-smoke is the serving-path telemetry gate: it boots the full
# speedtestd daemon in-process on ephemeral ports, fires a concurrent burst
# of real-protocol clients (ookla TCP, ndt7 WebSocket, xfinity HTTP) at it,
# and asserts the per-route latency histograms moved, /debug/obs/history
# serves well-formed windowed JSON over the scraped self-store, and the
# percentiles loadgen reconstructs from that history are sane.
loadgen-smoke:
	$(GO) run ./internal/tools/loadgensmoke

# resume-smoke is the kill-matrix checkpoint/resume gate: it builds the
# real clasp binary, SIGKILLs a checkpointing campaign at each of three
# deterministic points (mid-round, block-flush, round-boundary — armed
# via CLASP_KILL_POINT, see internal/killpoint), resumes each through
# `clasp resume`, and fails unless every resumed run's stdout is
# byte-identical to a never-killed run — at parallelism 1 and 4. A fourth
# cell kills a multi-campaign `report all` as its second campaign
# completes and requires the command resume to skip the finished
# campaigns and still reproduce the full report byte-for-byte.
resume-smoke:
	$(GO) run ./internal/tools/resumesmoke

# bench-check re-runs the recorded benchmarks and compares them against
# the committed BENCH_*.json records: more than +25% ns/op or more than
# +0.2% allocs/op fails the build (timings get machine-noise slack;
# allocation slack rounds to zero for the deterministic micro-benchmarks
# and only absorbs scheduling jitter in concurrent ones). -count=3 runs
# each benchmark three times and benchdiff keeps the per-benchmark
# minimum, so a noisy scheduler can't produce a false regression.
bench-check:
	$(GO) test -run=^$$ -count=3 -benchtime=0.5s \
		-bench='$(HOTPATH_BENCH)|BenchmarkObs|BenchmarkFaults|BenchmarkAnalysis|BenchmarkBlock' -benchmem \
		$(HOTPATH_PKGS) ./internal/obs/ ./internal/faults/ \
		./internal/analysis/ ./internal/congestion/ . | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchdiff \
		-against BENCH_hotpath.json -against BENCH_obs.json -against BENCH_faults.json \
		-against BENCH_analysis.json -against BENCH_tsdb.json

# ci is the gate for every change: formatting, tier-1 build + tests,
# static checks, the checkpoint coverage floor, the full suite under the
# race detector, a benchmark smoke run, the bench/ module build, the
# observability, fault-injection, analysis-determinism, scenario-golden,
# storage-determinism, serving-path-telemetry and kill-matrix
# checkpoint/resume smoke gates, and the benchmark regression check
# against the committed BENCH_*.json records. It is the local superset of
# the CI workflow's parallel jobs (.github/workflows/ci.yml).
ci: fmt-check build test vet cover-check race bench-smoke bench-build obs-smoke fault-smoke analysis-smoke scenario-smoke block-smoke loadgen-smoke resume-smoke bench-check
