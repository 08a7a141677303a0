// Package orchestrator runs CLASP's measurement campaigns (§3.2): it plans
// how many measurement VMs a region needs for one test per server per hour
// (each VM runs one test at a time, at most 17 per hour), deploys them
// across availability zones, executes hourly rounds in randomised order,
// captures packet headers and SoMeta metadata, runs follow-up traceroutes,
// uploads results to the region's storage bucket, and indexes them into the
// time-series store.
//
// # Concurrency model
//
// A round fans out across its simulated measurement VMs — one goroutine per
// VM's test list, bounded by Config.Parallelism — only when a test can
// block: under a Config.Measure hook (a real protocol client occupies its
// VM for wall-clock time) or an active fault profile (timeouts and retry
// backoff sleep). A purely simulated round runs inline on the campaign's
// goroutine under one WorkerPool slot: a VM's hour is ~16 tests of ~0.5 µs,
// less than the goroutine hand-off it would ride on, and multi-campaign
// commands already get their parallelism from concurrent campaigns.
// Either way measurement results land in a slice indexed by a deterministic
// per-hour task order, and all observable side effects — sink records,
// egress metering, report counters — are applied in that order after the
// round completes. Because netsim.Sim.Measure is a pure function of
// (seed, spec), a campaign produces bit-identical measurement sets at every
// parallelism level, including 1 (sequential).
package orchestrator

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/cloud"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/flowstats"
	"github.com/clasp-measurement/clasp/internal/killpoint"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/someta"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/traceroute"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// TestsPerVMPerHour is the paper's per-VM budget: each throughput test
// takes up to 120 s, plus 20 min of traceroutes and 5 min of uploads per
// hour, leaving at most 17 tests.
const TestsPerVMPerHour = 17

// TestsPerServerPerHour is the hourly test load one server adds to the
// plan: download and upload are separate tests, each occupying its own
// slot in a VM's hourly budget.
const TestsPerServerPerHour = 2

// PlanVMs returns the number of measurement VMs needed to test n servers
// hourly. The plan is on tests per hour, not servers per hour: each server
// consumes TestsPerServerPerHour of the 17 hourly per-VM test slots.
func PlanVMs(n int) int {
	return PlanVMsForTests(n * TestsPerServerPerHour)
}

// PlanVMsForTests returns the number of measurement VMs needed to run the
// given number of tests each hour.
func PlanVMsForTests(tests int) int {
	if tests <= 0 {
		return 0
	}
	return (tests + TestsPerVMPerHour - 1) / TestsPerVMPerHour
}

// TestEgressBytes is the emit phase's egress formula for one completed
// test: uploads push the full transfer out of the cloud, downloads only
// return ACKs (~2%). durSec <= 0 uses the default test duration. Exposed
// so checkpoint replay can re-meter the same transfers a live emit phase
// billed, keeping a resumed `costs` consistent with an uninterrupted run.
func TestEgressBytes(m analysis.Measurement, durSec float64) int64 {
	if durSec <= 0 {
		durSec = 15
	}
	xfer := int64(m.Mbps * 1e6 / 8 * durSec)
	if m.Dir == netsim.Upload {
		return xfer
	}
	return xfer / 50
}

// Sink consumes measurement records as the campaign produces them, so
// full-scale runs need not hold every record in memory. The engine feeds
// every campaign's records to a LogSink, plus a StoreSink and the prepared
// analysis views when the campaign is small enough for them.
//
// A single Run delivers records from one goroutine, so any Sink works for
// one campaign. Sinks shared across concurrently running campaigns must be
// safe for concurrent use: StoreSink already is, LogSink and SliceSink are
// not — wrap them (or any other unsafe sink) in a LockedSink.
type Sink interface {
	Record(analysis.Measurement)
}

// SliceSink collects records into a slice: Run's default when given a nil
// sink, and the collector this package's tests read records back from. The
// engine does not use it. It is not safe for concurrent use; wrap it in a
// LockedSink when sharing it across campaigns.
type SliceSink struct {
	Out []analysis.Measurement
}

// Record implements Sink.
func (s *SliceSink) Record(m analysis.Measurement) { s.Out = append(s.Out, m) }

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(analysis.Measurement)

// Record implements Sink.
func (f SinkFunc) Record(m analysis.Measurement) { f(m) }

// LockedSink serialises access to an inner sink, making it safe to share
// across concurrently running campaigns.
type LockedSink struct {
	mu    sync.Mutex
	inner Sink
}

// NewLockedSink wraps a sink with a mutex.
func NewLockedSink(inner Sink) *LockedSink { return &LockedSink{inner: inner} }

// Record implements Sink.
func (l *LockedSink) Record(m analysis.Measurement) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.inner.Record(m)
}

// StoreSink indexes records into a time-series store. It is safe for
// concurrent use: tsdb.Store shards its lock internally, and the sink
// interns one bound series handle per (server, region, tier, dir) so a
// repeated record skips tag construction, key rendering and field-name
// handling, and inserts its three values without allocating.
type StoreSink struct {
	Store *tsdb.Store

	mu      sync.Mutex // guards handles, never held across an insert
	handles map[storeSinkKey]*tsdb.BoundHandle
}

// storeSinkKey identifies one record stream's series.
type storeSinkKey struct {
	server int
	region string
	tier   bgp.Tier
	dir    netsim.Direction
}

// handle returns the bound handle of a record's series, interning it on
// first use.
func (s *StoreSink) handle(m *analysis.Measurement) *tsdb.BoundHandle {
	key := storeSinkKey{server: m.ServerID, region: m.Region, tier: m.Tier, dir: m.Dir}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.handles[key]
	if !ok {
		// Handle and Bind errors are impossible for the generated tag values
		// and the fixed field names.
		h, _ := s.Store.Handle("speedtest", tsdb.Tags{
			"server": strconv.Itoa(m.ServerID),
			"region": m.Region,
			"tier":   m.Tier.String(),
			"dir":    m.Dir.String(),
		})
		b, _ = h.Bind("mbps", "rtt_ms", "loss")
		if s.handles == nil {
			s.handles = make(map[storeSinkKey]*tsdb.BoundHandle)
		}
		s.handles[key] = b
	}
	return b
}

// Record implements Sink.
func (s *StoreSink) Record(m analysis.Measurement) {
	_ = s.handle(&m).Insert(m.Time, m.Mbps, m.RTTms, m.Loss) // arity fixed by Bind above
}

// LogSink appends records into a columnar RecordLog, the engine's one
// record representation: records are compressed block-at-a-time as they
// arrive, and the same log is what checkpoints serialise and analyses read
// back. Like SliceSink it is not safe for concurrent use; wrap it in a
// LockedSink when sharing it across campaigns.
type LogSink struct {
	Log *analysis.RecordLog
}

// Record implements Sink.
func (s *LogSink) Record(m analysis.Measurement) { s.Log.Append(m) }

// MultiSink fans records out to several sinks. It holds no state of its
// own, so it is as safe for concurrent use as its least safe component.
type MultiSink []Sink

// Record implements Sink.
func (ms MultiSink) Record(m analysis.Measurement) {
	for _, s := range ms {
		s.Record(m)
	}
}

// Config describes one campaign in one region.
type Config struct {
	Region  string
	Servers []*topology.Server
	// Tiers to measure each server over. Topology-based campaigns use
	// {Premium}; differential campaigns use {Premium, Standard} with a
	// dedicated VM pair per tier.
	Tiers []bgp.Tier
	// Start and Days bound the campaign in virtual time.
	Start time.Time
	Days  int
	// TestDurationSec is the per-test transfer duration (default 15).
	TestDurationSec float64
	// DownlinkMbps/UplinkMbps are the tc caps (defaults 1000/100, §3.2).
	DownlinkMbps float64
	UplinkMbps   float64
	// Seed drives the per-hour randomised test order.
	Seed int64
	// CaptureEvery synthesises and uploads a packet capture plus SoMeta
	// records for every Nth test (0 disables capture; captures are the
	// heaviest artifact).
	CaptureEvery int
	// TracerouteEvery runs a follow-up paris traceroute per server every
	// N days (0 disables; the paper ran them after each test).
	TracerouteEvery int
	// FixedOrder disables the per-hour test-order randomisation; only the
	// D5 ablation uses this (the paper randomises to decorrelate from
	// periodic system events).
	FixedOrder bool
	// Parallelism bounds how many simulated measurement VMs execute their
	// hourly test lists concurrently when tests can block (a Measure hook
	// or an active fault profile; see the package's concurrency model), and
	// how many follow-up traceroutes run at once. 0 or 1 runs sequentially.
	// The measurement set is bit-identical at every setting.
	Parallelism int
	// Measure overrides how a scheduled test executes (default: the
	// simulator's Measure). Drivers use it to route tests through a real
	// protocol client, where each test occupies its VM for real
	// wall-clock time — the case the worker pool exists for. It is called
	// from concurrent VM goroutines when Parallelism > 1, so it must be
	// safe for concurrent use, and it must stay deterministic in the spec
	// for the bit-identical guarantee to hold.
	Measure func(netsim.TestSpec) (netsim.TestResult, error)
	// Faults selects the fault-injection profile and the resilience policy
	// the campaign runs under (internal/faults). The zero profile — or the
	// canned "none" — injects nothing and leaves execution bit-identical
	// to a fault-free engine, pinned by TestFaultProfileNoneBitIdentical.
	// Active profiles keep campaigns deterministic per Seed at any
	// Parallelism: every injection decision, retry delay and breaker
	// transition is a pure function of the seed and task coordinates.
	Faults faults.Profile
	// CheckpointEvery calls OnCheckpoint after every Nth completed round
	// (hour); 0 and 1 both mean every round.
	CheckpointEvery int
	// OnCheckpoint receives a Progress snapshot at each checkpoint
	// boundary. A returned error aborts the campaign — by then the
	// snapshot's records are already durable, so callers use a sentinel
	// error to stop a campaign with a valid checkpoint on disk (the
	// in-process resume tests do exactly that). nil disables checkpointing.
	OnCheckpoint func(Progress) error
	// Resume continues a campaign from a checkpointed Progress instead of
	// from hour zero. The caller must replay the checkpoint's records into
	// its sink first: Run only re-executes rounds from Progress.NextHour
	// on, emitting into the same sink. Every other Config field must match
	// the original run for the byte-identical guarantee to hold.
	Resume *Progress
	// Workers, when set, is a command-wide VM-worker budget shared with the
	// other campaigns of a multi-campaign command: every fanned-out VM
	// round, inline round and traceroute batch entry holds a pool slot while
	// it runs, so concurrent campaigns together never exceed the pool's
	// capacity even though each may spawn up to Parallelism goroutines. nil
	// keeps the historical per-campaign budget. Purely a scheduling
	// constraint — the measurement set stays bit-identical with or without
	// it.
	Workers *WorkerPool
	// OnRound is called after each completed round (hour) with the
	// campaign's completed-hour watermark and total hours, from the
	// campaign's own goroutine. Multi-campaign schedulers use it to
	// aggregate whole-command progress; nil disables it.
	OnRound func(done, total int)
}

// Progress is the serializable cross-round state of a running campaign —
// everything mutable that survives from one hourly round to the next.
// Together with the campaign Config (seed included) it determines the rest
// of the run exactly: per-hour test orders, fault decisions and measurement
// results are pure functions of (seed, coordinates), so a campaign resumed
// from a Progress re-executes the remaining rounds bit-identically at any
// Parallelism. Everything else the engine touches is either pure
// (per-hour RNG, routing caches) or rebuilt on resume (VM pool, workers).
type Progress struct {
	// NextHour is the completed-hour watermark: rounds [0, NextHour) are
	// fully emitted and durable; the resumed run starts at NextHour.
	NextHour int `json:"nextHour"`
	// Downloads is the cumulative download-test counter that drives the
	// CaptureEvery cadence across hours.
	Downloads int `json:"downloads"`
	// Report is the report accumulated over the completed rounds,
	// including the original deploy's retry accounting (a resumed run
	// discards its own redeploy counters in favour of this).
	Report Report `json:"report"`
	// Breaker is the circuit breaker's dynamic state (zero when the
	// profile has no breaker).
	Breaker faults.BreakerSnapshot `json:"breaker"`
	// VMCreateAttempts is the platform's per-name creation-attempt residue
	// from failed re-creations; FailVMCreate keys on (name, attempt), so
	// future re-creation decisions depend on it.
	VMCreateAttempts map[string]int `json:"vmCreateAttempts,omitempty"`
	// DeadVMs are VM slots left empty by a failed re-creation; their tests
	// keep dropping until a later hour re-creates them.
	DeadVMs []int `json:"deadVms,omitempty"`
}

func (c Config) withDefaults() Config {
	if c.TestDurationSec <= 0 {
		c.TestDurationSec = 15
	}
	if c.DownlinkMbps <= 0 {
		c.DownlinkMbps = 1000
	}
	if c.UplinkMbps <= 0 {
		c.UplinkMbps = 100
	}
	if len(c.Tiers) == 0 {
		c.Tiers = []bgp.Tier{bgp.Premium}
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.Days <= 0 {
		c.Days = 1
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	return c
}

// hourSeed derives the per-hour permutation seed from the campaign seed
// with a splitmix64-style finaliser. The multiplicative avalanche
// decorrelates adjacent hours even for small campaign seeds, where the
// previous xor-with-scaled-hour mixing produced overlapping orders.
func hourSeed(seed int64, hour int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*(uint64(hour)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// HourOrder returns the randomised server visit order for one campaign
// hour. Exported so tests can pin the deterministic schedule.
func HourOrder(seed int64, hour, n int) []int {
	return rand.New(rand.NewSource(hourSeed(seed, hour))).Perm(n)
}

// Orchestrator wires the simulator, the cloud control plane and the data
// pipeline together.
type Orchestrator struct {
	sim      *netsim.Sim
	platform *cloud.Platform
	bucket   *cloud.Bucket
}

// New creates an orchestrator. bucket may be nil to skip artifact uploads.
func New(sim *netsim.Sim, platform *cloud.Platform, bucket *cloud.Bucket) *Orchestrator {
	return &Orchestrator{sim: sim, platform: platform, bucket: bucket}
}

// Report summarises a finished campaign.
type Report struct {
	Region       string
	VMs          int
	Tests        int
	Hours        int
	Traceroutes  int
	Captures     int
	MaxVMCPUUtil float64

	// Resilience accounting, all zero in fault-free campaigns. Every
	// scheduled test either completes (Tests) or is Dropped — after
	// exhausting its retry budget, hitting a server-unavailability window,
	// losing its VM for the hour, or being shed by an open breaker.
	// Failed counts failed executions (a test that fails twice counts
	// twice) and Retried the re-executions, so Failed >= Dropped.
	Failed            int
	Retried           int
	Dropped           int
	Preemptions       int
	VMCreateRetries   int
	BreakerOpenRounds int
}

// vmWorker is the execution state of one simulated measurement VM: its own
// SoMeta collector and traceroute prober, so concurrently running VMs never
// share a mutable instrument.
type vmWorker struct {
	collector *someta.Collector
	prober    *traceroute.Prober
}

// task is one scheduled speed test of an hourly round.
type task struct {
	srv     *topology.Server
	tier    bgp.Tier
	dir     netsim.Direction
	at      time.Time
	vm      int // global VM index: tierIndex*perTierVMs + vmWithinTier
	capture bool
}

// Run executes the campaign, streaming measurements into sink.
func (o *Orchestrator) Run(cfg Config, sink Sink) (*Report, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("orchestrator: no servers to measure")
	}
	if sink == nil {
		sink = &SliceSink{}
	}
	topo := o.sim.Topology()
	if _, ok := topo.Region(cfg.Region); !ok {
		return nil, fmt.Errorf("orchestrator: unknown region %q", cfg.Region)
	}

	// Campaign progress metrics and the root of the span hierarchy
	// (campaign → phase/round → vm-hour → test). Both no-op entirely when
	// the obs registry/tracer are disabled, and nothing they record feeds
	// back into the measurement arithmetic — TestMetricsDoNotChangeResults
	// pins that campaigns are bit-identical either way.
	metrics := newCampaignMetrics(cfg.Region)
	campSpan := obs.Trace("campaign").With("region", cfg.Region).WithInt("days", cfg.Days)
	defer campSpan.End()

	// Fault machinery. A nil injector — the common case — short-circuits
	// every fault branch below, keeping the fault-free path identical to an
	// engine without this layer. The platform injector is (re)installed
	// unconditionally so a previous campaign's cannot leak into this run.
	inj := faults.NewInjector(cfg.Faults, cfg.Seed)
	var pol faults.Profile
	var breaker *faults.Breaker
	if inj != nil {
		pol = inj.Profile()
		breaker = faults.NewBreaker(pol.BreakerFailFrac, pol.BreakerMinSamples, pol.BreakerCooldown)
		o.platform.SetVMFaults(inj)
	} else {
		o.platform.SetVMFaults(nil)
	}

	// Precompute the routing trees every measurement will need — the tree
	// toward the cloud (download ingress) and toward each server AS
	// (upload egress) — so the first hourly round starts with caches hot.
	// Warming is a pure cache fill: results are identical without it.
	warmDsts := []bgp.ASN{topo.Cloud.ASN}
	seen := map[bgp.ASN]bool{topo.Cloud.ASN: true}
	for _, srv := range cfg.Servers {
		if !seen[srv.ASN] {
			seen[srv.ASN] = true
			warmDsts = append(warmDsts, srv.ASN)
		}
	}
	phaseStart := time.Now()
	warmSpan := campSpan.Child("warm").WithInt("destinations", len(warmDsts))
	o.sim.Router().Warm(warmDsts, cfg.Parallelism)
	warmSpan.End()
	metrics.phaseDone("warm", phaseStart)

	// Deploy measurement VMs: enough for the hourly test load (two tests
	// per server), per tier, spread across zones.
	phaseStart = time.Now()
	deploySpan := campSpan.Child("deploy")
	perTierVMs := PlanVMs(len(cfg.Servers))
	totalVMs := perTierVMs * len(cfg.Tiers)
	rep := &Report{Region: cfg.Region, VMs: totalVMs}
	vms := make([]*cloud.VM, 0, totalVMs)
	specs := make([]cloud.VMSpec, 0, totalVMs)
	for _, tier := range cfg.Tiers {
		for i := 0; i < perTierVMs; i++ {
			vm, retries, err := o.createVM(inj, pol, cloud.VMSpec{
				Name:         fmt.Sprintf("clasp-%s-%s-%d", cfg.Region, tier, i),
				Region:       cfg.Region,
				Type:         cloud.N1Standard2,
				Tier:         tier,
				DownlinkMbps: cfg.DownlinkMbps,
				UplinkMbps:   cfg.UplinkMbps,
				Labels:       map[string]string{"role": "measurement", "tier": tier.String()},
			}, cfg.Start)
			rep.VMCreateRetries += retries
			metrics.addVMCreateRetries(retries)
			if err != nil {
				return nil, fmt.Errorf("orchestrator: deploying VM %d/%s: %w", i, tier, err)
			}
			vms = append(vms, vm)
			// The provisioned spec has its zone resolved, so a preempted VM
			// is re-created in the same zone without consuming another
			// round-robin slot — keeping zone assignment deterministic.
			specs = append(specs, vm.VMSpec)
		}
	}
	defer func() {
		end := cfg.Start.Add(time.Duration(cfg.Days) * 24 * time.Hour)
		for i := range vms {
			// A slot is nil while its VM is preempted and not yet replaced.
			if vms[i] != nil {
				_ = o.platform.DeleteVM(vms[i].Name, end)
			}
		}
	}()

	workers := make([]*vmWorker, totalVMs)
	for i := range workers {
		workers[i] = &vmWorker{
			collector: someta.NewCollector(fmt.Sprintf("clasp-%s-%d", cfg.Region, i), nil),
			prober:    traceroute.NewProber(o.sim, cfg.Region, cfg.Seed),
		}
	}
	deploySpan.WithInt("vms", totalVMs).End()
	metrics.phaseDone("deploy", phaseStart)

	totalHours := cfg.Days * 24
	slotGap := time.Hour / time.Duration(TestsPerVMPerHour+1)
	downloads := 0

	// Resume: swap in the checkpointed cross-round state. The redeploy
	// above re-ran the original deploy bit-identically (fresh platform,
	// pure FailVMCreate decisions), so its retry counters duplicate what
	// the checkpointed report already carries — the report is restored
	// wholesale, not merged. VM slots that were dead at the checkpoint are
	// re-emptied so their rounds keep dropping tests until the hour that
	// deterministically re-creates them.
	startHour := 0
	if cfg.Resume != nil {
		res := cfg.Resume
		if res.NextHour < 0 || res.NextHour > totalHours {
			return nil, fmt.Errorf("orchestrator: resume watermark %d outside campaign of %d hours", res.NextHour, totalHours)
		}
		restored := res.Report
		rep = &restored
		downloads = res.Downloads
		breaker.Restore(res.Breaker)
		o.platform.RestoreCreateAttempts(res.VMCreateAttempts)
		resumeAt := cfg.Start.Add(time.Duration(res.NextHour) * time.Hour)
		for _, i := range res.DeadVMs {
			if i < 0 || i >= len(vms) || vms[i] == nil {
				continue
			}
			if err := o.platform.DeleteVM(vms[i].Name, resumeAt); err != nil {
				return nil, fmt.Errorf("orchestrator: resuming dead VM slot %d: %w", i, err)
			}
			vms[i] = nil
		}
		startHour = res.NextHour
	}

	// Checkpoint cadence: the accumulator advances per completed round
	// (shed rounds included — an open breaker is exactly the cross-round
	// state a crash must not lose).
	roundsSince := 0
	checkpointAfter := func(hour int) error {
		if cfg.OnCheckpoint == nil {
			return nil
		}
		roundsSince++
		if roundsSince < cfg.CheckpointEvery {
			return nil
		}
		roundsSince = 0
		var dead []int
		for i := range vms {
			if vms[i] == nil {
				dead = append(dead, i)
			}
		}
		p := Progress{
			NextHour:         hour + 1,
			Downloads:        downloads,
			Report:           *rep,
			Breaker:          breaker.Snapshot(),
			VMCreateAttempts: o.platform.CreateAttempts(),
			DeadVMs:          dead,
		}
		if err := cfg.OnCheckpoint(p); err != nil {
			return fmt.Errorf("orchestrator: checkpoint after hour %d: %w", hour, err)
		}
		killpoint.Maybe("round-boundary", hour)
		return nil
	}

	// Progress/ETA gauges for live introspection (-debug-addr). Driven by
	// the wall clock only; see setProgress for the no-feedback invariant.
	wallStart := time.Now()
	metrics.setProgress(startHour, totalHours, wallStart)

	for hour := startHour; hour < totalHours; hour++ {
		hourStart := cfg.Start.Add(time.Duration(hour) * time.Hour)
		rep.Hours++
		// Randomise the test order each hour to decorrelate from periodic
		// system events (§3.2).
		var order []int
		if cfg.FixedOrder {
			order = make([]int, len(cfg.Servers))
			for i := range order {
				order[i] = i
			}
		} else {
			order = HourOrder(cfg.Seed, hour, len(cfg.Servers))
		}

		// Build the hour's task list. Everything observable is derived
		// from this deterministic order: VM assignment, slot timestamps
		// (upload gets its own slot after the download), and the capture
		// cadence, which counts downloads in task order so it selects the
		// same tests at any parallelism.
		tasks := make([]task, 0, len(order)*TestsPerServerPerHour*len(cfg.Tiers))
		for ti, tier := range cfg.Tiers {
			for pos, idx := range order {
				srv := cfg.Servers[idx]
				for di, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
					testIdx := pos*TestsPerServerPerHour + di
					capture := false
					if dir == netsim.Download {
						downloads++
						capture = cfg.CaptureEvery > 0 && downloads%cfg.CaptureEvery == 0
					}
					tasks = append(tasks, task{
						srv:     srv,
						tier:    tier,
						dir:     dir,
						at:      hourStart.Add(time.Duration(testIdx%TestsPerVMPerHour) * slotGap),
						vm:      ti*perTierVMs + testIdx/TestsPerVMPerHour,
						capture: capture,
					})
				}
			}
		}

		metrics.addScheduled(len(tasks))
		if breaker != nil && !breaker.Allow() {
			// Open breaker: shed the whole round with explicit accounting
			// instead of executing it. Observing the shed round with zero
			// executed tasks advances the cooldown toward the probe round.
			rep.Dropped += len(tasks)
			rep.BreakerOpenRounds++
			metrics.addDropped(len(tasks))
			metrics.incBreakerOpenRounds()
			breaker.ObserveRound(len(tasks), 0)
			metrics.setBreakerState(breaker.State())
			if err := checkpointAfter(hour); err != nil {
				return nil, err
			}
			metrics.setProgress(hour+1, totalHours, wallStart)
			if cfg.OnRound != nil {
				cfg.OnRound(hour+1, totalHours)
			}
			continue
		}
		phaseStart = time.Now()
		roundSpan := campSpan.Child("round").WithInt("hour", hour).WithInt("tasks", len(tasks))
		results, completed, tally, err := o.runRound(cfg, hourStart, hour, tasks, workers, vms, specs, inj, pol, roundSpan, metrics)
		roundSpan.End()
		metrics.phaseDone("measure", phaseStart)
		if err != nil {
			return nil, err
		}
		// Crash-test point: the round has executed but nothing is emitted
		// or checkpointed yet — a kill here loses the whole round, which
		// resume must re-execute from the last checkpoint's watermark.
		killpoint.Maybe("mid-round", hour)
		rep.Failed += tally.failed
		rep.Retried += tally.retried
		rep.Dropped += tally.dropped
		rep.Preemptions += tally.preemptions
		rep.VMCreateRetries += tally.vmCreateRetries
		metrics.addFaultTally(tally)
		if breaker != nil {
			// Round-boundary breaker feed: order-independent counts only,
			// so the trip point is deterministic at any parallelism.
			breaker.ObserveRound(tally.dropped, len(tasks))
			metrics.setBreakerState(breaker.State())
		}

		// Emit phase: sink records, egress metering and report counters
		// run in task order, so the record stream and the accrued
		// floating-point sums match the sequential schedule exactly.
		// Dropped tests never reach the sink — the paper discards failed
		// tests rather than recording partial measurements.
		phaseStart = time.Now()
		for i, t := range tasks {
			if !completed[i] {
				continue
			}
			res := results[i]
			sink.Record(analysis.Measurement{
				ServerID: t.srv.ID,
				Region:   cfg.Region,
				Tier:     t.tier,
				Dir:      t.dir,
				Time:     t.at,
				Mbps:     res.ThroughputMbps,
				RTTms:    res.RTTms,
				Loss:     res.LossRate,
			})
			rep.Tests++
			metrics.incCompleted()
			o.platform.RecordEgress(t.tier, TestEgressBytes(analysis.Measurement{
				Dir: t.dir, Mbps: res.ThroughputMbps,
			}, cfg.TestDurationSec))
			if t.capture {
				rep.Captures++
				metrics.incCaptures()
			}
		}
		metrics.phaseDone("emit", phaseStart)

		// Daily follow-up traceroutes: probing is pure, so it fans out
		// across the VM pool; uploads run in server order afterwards.
		if cfg.TracerouteEvery > 0 && hour%(24*cfg.TracerouteEvery) == 0 {
			phaseStart = time.Now()
			trSpan := campSpan.Child("traceroute").WithInt("hour", hour).WithInt("servers", len(cfg.Servers))
			trs := make([]traceroute.Result, len(cfg.Servers))
			err := forEachLimit(len(cfg.Servers), cfg.Parallelism, cfg.Workers.Wrap(func(i int) error {
				srv := cfg.Servers[i]
				w := workers[i%len(workers)]
				tr, err := w.prober.Trace(traceroute.Destination{
					IP: srv.IP, ASN: srv.ASN, City: srv.City, LinkID: -1, Tier: cfg.Tiers[0],
				}, traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(srv.ID)})
				if err != nil {
					return fmt.Errorf("orchestrator: traceroute to %d: %w", srv.ID, err)
				}
				trs[i] = tr
				return nil
			}))
			if err != nil {
				return nil, err
			}
			for i, srv := range cfg.Servers {
				rep.Traceroutes++
				metrics.incTraceroutes()
				if o.bucket == nil {
					continue
				}
				var buf bytes.Buffer
				if err := traceroute.WriteJSON(&buf, []traceroute.Result{trs[i]}); err != nil {
					return nil, err
				}
				key := fmt.Sprintf("%s/traceroute/%s/server-%d.json", cfg.Region, hourStart.Format("2006-01-02"), srv.ID)
				if err := o.bucket.Put(key, buf.Bytes(), hourStart); err != nil {
					return nil, err
				}
			}
			trSpan.End()
			metrics.phaseDone("traceroute", phaseStart)
		}
		if err := checkpointAfter(hour); err != nil {
			return nil, err
		}
		metrics.setProgress(hour+1, totalHours, wallStart)
		if cfg.OnRound != nil {
			cfg.OnRound(hour+1, totalHours)
		}
	}
	o.platform.AccrueVMHours(totalVMs, time.Duration(totalHours)*time.Hour, cloud.N1Standard2)
	for _, w := range workers {
		if u := w.collector.MaxCPU(); u > rep.MaxVMCPUUtil {
			rep.MaxVMCPUUtil = u
		}
	}
	return rep, nil
}

// roundTally aggregates one round's resilience events. Each VM goroutine
// fills its own slot and the totals are summed after the round joins, so
// the counts are deterministic at any parallelism.
type roundTally struct {
	failed          int
	retried         int
	dropped         int
	preemptions     int
	vmCreateRetries int
}

func (t *roundTally) add(o roundTally) {
	t.failed += o.failed
	t.retried += o.retried
	t.dropped += o.dropped
	t.preemptions += o.preemptions
	t.vmCreateRetries += o.vmCreateRetries
}

// createVM provisions one VM, retrying injected control-plane rejections on
// the profile's deterministic backoff schedule. It returns how many retries
// it spent; real errors — and injected ones past the retry budget — surface
// to the caller.
func (o *Orchestrator) createVM(inj *faults.Injector, pol faults.Profile, spec cloud.VMSpec, at time.Time) (*cloud.VM, int, error) {
	retries := 0
	for attempt := 0; ; attempt++ {
		vm, err := o.platform.CreateVM(spec, at)
		if err == nil {
			return vm, retries, nil
		}
		fe, injected := faults.AsError(err)
		if inj == nil || !injected || !fe.Retryable() || attempt >= pol.MaxRetries {
			return nil, retries, err
		}
		retries++
		time.Sleep(inj.Backoff(attempt, faults.KeyString(spec.Name)))
	}
}

// runRound executes one hour's tasks: inline on the caller's goroutine when
// no test can block, otherwise one goroutine per VM bounded by
// cfg.Parallelism. Results are indexed by task position, so callers observe
// them in the deterministic schedule order regardless of how the round
// interleaved; completed marks the positions that produced a result (always
// all of them in fault-free campaigns).
func (o *Orchestrator) runRound(cfg Config, hourStart time.Time, hour int, tasks []task, workers []*vmWorker, vms []*cloud.VM, specs []cloud.VMSpec, inj *faults.Injector, pol faults.Profile, round obs.Span, metrics *campaignMetrics) ([]netsim.TestResult, []bool, roundTally, error) {
	results := make([]netsim.TestResult, len(tasks))
	completed := make([]bool, len(tasks))
	byVM := make([][]int, len(workers))
	for i, t := range tasks {
		byVM[t.vm] = append(byVM[t.vm], i)
	}
	measure := cfg.Measure
	if measure == nil {
		measure = o.sim.Measure
	}
	traced := obs.TraceEnabled()
	tallies := make([]roundTally, len(workers))

	// execute is the faulted execution path: injection (bounded by ctx),
	// then the measurement. The default simulator route goes through
	// MeasureCtx so the netsim fault counters see every injection; a
	// Measure override keeps its plain signature and gets the injection
	// applied here.
	var execute func(ctx context.Context, spec netsim.TestSpec) (netsim.TestResult, error)
	if inj != nil {
		if cfg.Measure != nil {
			execute = func(ctx context.Context, spec netsim.TestSpec) (netsim.TestResult, error) {
				if err := inj.BeforeMeasure(ctx, spec); err != nil {
					return netsim.TestResult{}, err
				}
				return cfg.Measure(spec)
			}
		} else {
			execute = func(ctx context.Context, spec netsim.TestSpec) (netsim.TestResult, error) {
				return o.sim.MeasureCtx(ctx, spec, inj)
			}
		}
	}

	// runTest executes one task under the profile's timeout/retry/backoff
	// policy. Injected failures are tallied and — once non-retryable or out
	// of budget — dropped, leaving completed[ti] false; real errors still
	// abort the campaign exactly as they did before the fault layer.
	runTest := func(t task, ti int, tally *roundTally) error {
		spec := netsim.TestSpec{
			Region:      cfg.Region,
			Server:      t.srv,
			Tier:        t.tier,
			Dir:         t.dir,
			Time:        t.at,
			DurationSec: cfg.TestDurationSec,
			VMDownMbps:  cfg.DownlinkMbps,
			VMUpMbps:    cfg.UplinkMbps,
		}
		if inj == nil {
			res, err := measure(spec)
			if err != nil {
				return fmt.Errorf("orchestrator: test %d/%s/%s: %w", t.srv.ID, t.tier, t.dir, err)
			}
			results[ti], completed[ti] = res, true
			return nil
		}
		for attempt := 0; ; attempt++ {
			spec.Attempt = attempt
			ctx, cancel := context.WithTimeout(context.Background(), pol.TestTimeout)
			res, err := execute(ctx, spec)
			cancel()
			if err == nil {
				results[ti], completed[ti] = res, true
				return nil
			}
			fe, injected := faults.AsError(err)
			if !injected {
				return fmt.Errorf("orchestrator: test %d/%s/%s: %w", t.srv.ID, t.tier, t.dir, err)
			}
			tally.failed++
			if !fe.Retryable() || attempt >= pol.MaxRetries {
				tally.dropped++
				return nil
			}
			tally.retried++
			time.Sleep(inj.Backoff(attempt,
				faults.KeyString(cfg.Region), uint64(t.srv.ID),
				uint64(t.tier), uint64(t.dir), uint64(hour)))
		}
	}

	runVM := func(vm int) error {
		if len(byVM[vm]) == 0 {
			return nil
		}
		tally := &tallies[vm]
		if inj != nil {
			// Survive this hour's preemption, then make sure the VM slot is
			// populated — a re-creation that failed in an earlier hour left
			// it nil. A VM-hour with no instance is degraded, not fatal:
			// its tests are dropped and the campaign continues (the paper
			// re-plans lost VM-hours rather than aborting, §3.2).
			if vms[vm] != nil && inj.PreemptVM(specs[vm].Name, hour) {
				if err := o.platform.Preempt(specs[vm].Name, hourStart); err != nil {
					return fmt.Errorf("orchestrator: preempting VM %q: %w", specs[vm].Name, err)
				}
				vms[vm] = nil
				tally.preemptions++
			}
			if vms[vm] == nil {
				nvm, retries, err := o.createVM(inj, pol, specs[vm], hourStart)
				tally.vmCreateRetries += retries
				if err != nil {
					tally.dropped += len(byVM[vm])
					return nil
				}
				vms[vm] = nvm
			}
		}
		w := workers[vm]
		vmSpan := round.Child("vm-hour").WithInt("vm", vm).WithInt("tests", len(byVM[vm]))
		defer vmSpan.End()
		// One unconditional SoMeta snapshot per VM-hour, so the report's
		// MaxVMCPUUtil is populated even with captures disabled.
		w.collector.Snap(hourStart)
		metrics.incSnapshots()
		for _, ti := range byVM[vm] {
			t := tasks[ti]
			var testSpan obs.Span
			if traced {
				testSpan = vmSpan.Child("test").WithInt("server", t.srv.ID).
					With("tier", t.tier.String()).With("dir", t.dir.String())
			}
			err := runTest(t, ti, tally)
			testSpan.End()
			if err != nil {
				return err
			}
			if completed[ti] && t.capture {
				if err := o.captureTest(cfg, t.srv, t.tier, t.at, results[ti], w.collector, metrics); err != nil {
					return err
				}
			}
		}
		return nil
	}

	var err error
	if cfg.Measure == nil && inj == nil {
		// Nothing in a simulated, fault-free round can block, so the whole
		// round is one unit of work under one pool slot.
		wholeRound := func(int) error { return forEachLimit(len(workers), 1, runVM) }
		err = cfg.Workers.Wrap(wholeRound)(0)
	} else {
		err = forEachLimit(len(workers), cfg.Parallelism, cfg.Workers.Wrap(runVM))
	}
	if err != nil {
		return nil, nil, roundTally{}, err
	}
	var total roundTally
	for i := range tallies {
		total.add(tallies[i])
	}
	return results, completed, total, nil
}

// forEachLimit runs fn(0..n-1), at most `limit` calls in flight; limit <= 1
// runs inline. The first error wins; remaining started calls still finish.
func forEachLimit(n, limit int, fn func(i int) error) error {
	if limit <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	sem := make(chan struct{}, limit)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return firstErr
}

// captureTest synthesises a tcpdump-style header capture consistent with
// the measured flow, snapshots SoMeta metadata, compresses both, and
// uploads them to the results bucket.
func (o *Orchestrator) captureTest(cfg Config, srv *topology.Server, tier bgp.Tier, at time.Time, res netsim.TestResult, collector *someta.Collector, metrics *campaignMetrics) error {
	collector.Snap(at)
	metrics.incSnapshots()
	if o.bucket == nil {
		return nil
	}
	var raw bytes.Buffer
	err := flowstats.Synthesize(&raw, flowstats.SynthConfig{
		Client:      o.sim.VMAddr(cfg.Region, 0, 0),
		Server:      srv.IP,
		ClientPort:  uint16(40000 + srv.ID%20000),
		Start:       at,
		RTTms:       res.RTTms,
		Loss:        res.LossRate,
		RateMbps:    res.ThroughputMbps,
		DurationSec: minF(cfg.TestDurationSec, 5), // header capture of the first seconds
		Seed:        cfg.Seed ^ int64(srv.ID),
	})
	if err != nil {
		return fmt.Errorf("orchestrator: synthesising capture: %w", err)
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(raw.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	key := fmt.Sprintf("%s/pcap/%s/server-%d-%s.pcap.gz", cfg.Region, at.Format("2006-01-02"), srv.ID, tier)
	if err := o.bucket.Put(key, gz.Bytes(), at); err != nil {
		return err
	}

	snap, ok := collector.Latest()
	if !ok {
		// Nothing to upload; the pcap alone is still a valid artifact.
		return nil
	}
	var meta bytes.Buffer
	if err := someta.WriteJSON(&meta, []someta.Snapshot{snap}); err != nil {
		return err
	}
	metaKey := fmt.Sprintf("%s/someta/%s/server-%d-%s.json", cfg.Region, at.Format("2006-01-02"), srv.ID, tier)
	return o.bucket.Put(metaKey, meta.Bytes(), at)
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
