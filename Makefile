GO ?= go

.PHONY: build test race vet fmt-check cover-check fuzz-smoke bench bench-all bench-smoke bench-build bench-check ci

build:
	$(GO) build ./...

# The second line reruns the cross-core tests on one core and on two: every
# other gate runs at one GOMAXPROCS or with pacing, which is how a second
# core once cost 70 % wall-clock unnoticed. DeterminismContract (cmd/clasp)
# is the end-to-end one: every command at parallelism 1/4/16, under a
# memory budget, SIGKILLed at each kill point and resumed, prints the same
# bytes.
test:
	$(GO) test ./...
	$(GO) test -cpu 1,2 -run 'NeverStopsTheWorld|ConcurrentSelections|ParallelMatchesSequential|FaultedCampaignParallelismInvariant|RunPreliminaryMatchesPerSampleReference|PingerRegionsMatchOneRegion|DifferentialSelectionMatchesOneRegionScan|ResumeAtEveryHour|ReportAllByteIdentical|SharedFlowInterleavedDays|CampaignViews|RangeScan|DeterminismContract|HourOrderMatchesMathRand|CampaignIndexMatchesRecords|ConcurrentCampaignsIndexOneStore|VerdictMatches|TierDeltasMatch|SweepsMatch|PerfPointsHeld|CloudRoutes|InferMatches|WarmMatchesLazy|ConcurrentTreeToAndWarm|SweepsHeld|RoutersOnFirstRead|SortPairs' . ./internal/analysis/ ./internal/bdrmap/ ./internal/bgp/ ./internal/congestion/ ./internal/netsim/ ./internal/orchestrator/ ./internal/core/ ./internal/scenario/ ./internal/speedchecker/ ./internal/selection/ ./cmd/clasp/

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

# cover-check enforces statement-coverage floors: on the checkpoint
# package — the code whose whole job is surviving kills, where an untested
# branch is a lost campaign — and on analysis, orchestrator and core, the
# layers every output byte passes through. Each floor is a checked-in
# constant a few points under its measurement: raising coverage ratchets
# it, lowering it is a reviewed decision.
CHECKPOINT_COVER_MIN = 80.0
ANALYSIS_COVER_MIN = 93.0
ORCHESTRATOR_COVER_MIN = 88.0
CORE_COVER_MIN = 85.0

cover-check:
	@for floor in checkpoint:$(CHECKPOINT_COVER_MIN) analysis:$(ANALYSIS_COVER_MIN) \
		orchestrator:$(ORCHESTRATOR_COVER_MIN) core:$(CORE_COVER_MIN); do \
		pkg=$${floor%%:*}; min=$${floor#*:}; profile=$$(mktemp); \
		$(GO) test -count=1 -coverprofile=$$profile ./internal/$$pkg/ >/dev/null || { rm -f $$profile; exit 1; }; \
		total=$$($(GO) tool cover -func=$$profile | awk '/^total:/ { gsub("%","",$$3); print $$3 }'); \
		rm -f $$profile; \
		awk -v pkg="$$pkg" -v got="$$total" -v min="$$min" 'BEGIN { \
			if (got+0 < min+0) { printf "cover-check: internal/%s coverage %.1f%% is below the %.1f%% floor\n", pkg, got, min; exit 1 } \
			printf "cover-check: OK: internal/%s coverage %.1f%% (floor %.1f%%)\n", pkg, got, min }' || exit 1; \
	done

# fuzz-smoke searches for crashers: every fuzz target runs for 10 s on
# inputs it generates, where tier-1 only replays the checked-in corpora
# (testdata/fuzz). -fuzz takes one target per run, hence one line each; the
# minimize cap keeps a new interesting input from stalling a short run for
# the default minute while it is minimised. A failing input is written to
# the package's testdata/fuzz/<target>, where tier-1 replays it from then on.
FUZZ = $(GO) test -run='^$$' -fuzztime=10s -fuzzminimizetime=100x

fuzz-smoke:
	$(FUZZ) -fuzz='^FuzzBitStream$$' ./internal/colenc/
	$(FUZZ) -fuzz='^FuzzBlockRoundTrip$$' ./internal/tsdb/
	$(FUZZ) -fuzz='^FuzzInsertRows$$' ./internal/tsdb/
	$(FUZZ) -fuzz='^FuzzLoadCheckpoint$$' ./internal/checkpoint/
	$(FUZZ) -fuzz='^FuzzLoadManifest$$' ./internal/checkpoint/
	$(FUZZ) -fuzz='^FuzzDecodeColumns$$' ./internal/analysis/
	$(FUZZ) -fuzz='^FuzzReadMessage$$' ./internal/wsock/
	$(FUZZ) -fuzz='^FuzzServeConn$$' ./internal/speedtest/ookla/

# The committed micro-benchmark records, BENCH_<record>.json each. Per record:
# the benchmarks it holds (_BENCH), the packages they live in (_PKGS), what its
# recording run adds to go test (_TEST) and to benchjson (_JSON). bench and
# bench-check are both driven from this list.
BENCH_RECORDS = hotpath obs faults analysis tsdb

# Steady-state Measure by spec and by flow handle, one whole campaign round,
# sharded TSDB ingest through the map API, the index one record at a time
# through StoreSink.Record and in bulk from a finished campaign log through
# StoreSink.Index, one paper-scale topology selection (warm, and cold: a fresh
# router and simulator per iteration) and the paper-scale preliminary scan on
# one worker, of one region and of the three differential regions in one call
# — joined with the pre-overhaul baselines.
hotpath_BENCH = BenchmarkMeasure|BenchmarkCampaignRound|BenchmarkInsert|BenchmarkStoreSinkRecord|BenchmarkStoreSinkIndex|BenchmarkSelectTopologyPaperScale|BenchmarkPreliminaryScanPaperScale|BenchmarkPreliminaryScanDifferentialRegions
hotpath_PKGS = ./internal/netsim/ ./internal/tsdb/ ./internal/orchestrator/ ./internal/selection/ ./internal/speedchecker/
hotpath_JSON = -baseline BENCH_baseline.txt

obs_BENCH = BenchmarkObs
obs_PKGS = ./internal/obs/
obs_JSON = -note "observability: MeasureWarm vs MeasureWarmObs (BENCH_hotpath.json) is the metrics-enabled overhead on the steady-state campaign path (budget 5%); ObsDisabled* pin the disabled paths at 0 allocs/op"

faults_BENCH = BenchmarkFaults
faults_PKGS = ./internal/netsim/ ./internal/faults/
faults_JSON = -note "fault injection: FaultsDisabledMeasureCtx vs MeasureWarm (BENCH_hotpath.json) is the nil-injector overhead on the fault-free campaign path, budget 0 allocs/op (pinned by TestMeasureCtxDisabledPathZeroAlloc); FaultsBeforeMeasureMiss is the per-test decision cost under an active profile; FaultsBackoff is the per-retry schedule computation"

# -count=3 (benchjson keeps the min): the ms-scale analysis kernels see far
# fewer iterations per run than the ns-scale hot-path ones. The prefix takes
# in every analysis benchmark, BenchmarkAnalysisCongestionReportFirst (the
# report's first render) included.
analysis_BENCH = BenchmarkAnalysis
analysis_PKGS = ./internal/analysis/ ./internal/congestion/ .
analysis_TEST = -count=3
analysis_JSON = -baseline BENCH_analysis_baseline.txt -note "analysis engine: grouping and sweep kernels and the end-to-end CongestionReport (cache hits; CongestionReportFirst drops the held views before each call, so it groups, partitions and builds every verdict again); Speedup joins the pre-engine numbers in BENCH_analysis_baseline.txt (map-of-slices grouping, per-threshold re-splits, serial report; for AnalysisTierDeltas the map-and-sort tier join the dense kernel replaced)"

tsdb_BENCH = BenchmarkBlock
tsdb_PKGS = ./internal/tsdb/ ./internal/analysis/
tsdb_TEST = -count=3
tsdb_JSON = -note "columnar blocks: BlockEncode seals one 512-point columnar tail and BlockDecode reopens it into caller-owned, reused columns (0 allocs/op; it built 512 Points with a map each, 1,039 allocs/op, until the tail went columnar in PR 17; Query still pays one map per point it returns); extra bytes/sample is the compressed footprint, against 32 B for a raw ts+3-field sample, which is also what a tail row costs; BlockRecordLogAppend is streaming campaign ingest (extra bytes/record vs the 88 B in-memory Measurement — the >=4x compression gate); BlockStream* are the cursor kernels over a compressed log, comparable to their in-memory twins in BENCH_analysis.json"

empty :=
space := $(empty) $(empty)

# Both bench and bench-check run each benchmark for BENCHTIME: the pooled
# kernels' allocs/op moves with the benchtime (a pool the GC empties refills
# inside the timed loop), so a record taken at another benchtime holds counts
# the +0.2 % allocs gate then fails.
BENCHTIME = 0.5s

# bench re-records every record: ns/op and allocs/op per benchmark.
define bench_record
	$(GO) test -run=^$$ -bench='$($(1)_BENCH)' -benchtime=$(BENCHTIME) -benchmem $($(1)_TEST) $($(1)_PKGS) | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchjson $($(1)_JSON) -out BENCH_$(1).json

endef

bench:
	$(foreach r,$(BENCH_RECORDS),$(call bench_record,$(r)))

# bench-all runs every benchmark in the repo.
bench-all:
	$(GO) test -bench=. -benchmem ./...

# bench-smoke executes the hot-path benchmarks a fixed small number of
# iterations — a CI check that they still compile and run, not a timing.
# The paper-scale selection and scan run once: an iteration is a whole
# region's selection or scan, not a nanosecond-scale call.
bench-smoke:
	$(GO) test -run=^$$ -bench='BenchmarkMeasure|BenchmarkCampaignRound|BenchmarkInsert|BenchmarkStoreSinkRecord|BenchmarkStoreSinkIndex' -benchtime=100x \
		./internal/netsim/ ./internal/tsdb/ ./internal/orchestrator/
	$(GO) test -run=^$$ -bench='BenchmarkSelectTopologyPaperScale|BenchmarkPreliminaryScanPaperScale|BenchmarkPreliminaryScanDifferentialRegions' -benchtime=1x ./internal/selection/ ./internal/speedchecker/

# bench-build vets and tests the repository benchmark (bench/, the command
# BENCHMARK.json names). It is a module of its own that imports
# internal/..., so `go build ./...` and `go test ./...` here never compile
# it; this target is what catches an API change that breaks the benchmark.
bench-build:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-check re-runs the recorded benchmarks and compares them against
# the committed BENCH_*.json records: more than +25% ns/op or more than
# +0.2% allocs/op fails the build (timings get machine-noise slack;
# allocation slack rounds to zero for the deterministic micro-benchmarks
# and only absorbs scheduling jitter in concurrent ones). -count=3 runs
# each benchmark three times and benchdiff keeps the per-benchmark
# minimum, so a noisy scheduler can't produce a false regression.
bench-check:
	$(GO) test -run=^$$ -count=3 -benchtime=$(BENCHTIME) \
		-bench='$(subst $(space),|,$(foreach r,$(BENCH_RECORDS),$($(r)_BENCH)))' -benchmem \
		$(sort $(foreach r,$(BENCH_RECORDS),$($(r)_PKGS))) | tee -a /dev/stderr | \
		$(GO) run ./internal/tools/benchdiff $(foreach r,$(BENCH_RECORDS),-against BENCH_$(r).json)

# ci is the gate for every change: formatting, tier-1 build + tests (the
# determinism contract, the observability, serving-path and fault gates are
# all go tests), static checks, the coverage floors, the full suite
# under the race detector, a short crasher search by every fuzz target, a
# benchmark smoke run, the bench/ module build, and the benchmark regression
# check against the committed BENCH_*.json records. It is the local superset
# of the CI workflow's parallel jobs (.github/workflows/ci.yml).
ci: fmt-check build test vet cover-check race fuzz-smoke bench-smoke bench-build bench-check
