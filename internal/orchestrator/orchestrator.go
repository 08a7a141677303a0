// Package orchestrator runs CLASP's measurement campaigns (§3.2): it plans
// how many measurement VMs a region needs for one test per server per hour
// (each VM runs one test at a time, at most 17 per hour), deploys them
// across availability zones, executes hourly rounds in randomised order,
// captures packet headers and SoMeta metadata, runs follow-up traceroutes,
// uploads results to the region's storage bucket, and appends every record
// to the campaign's record log; StoreSink indexes a finished log into the
// time-series store.
//
// # Round model
//
// A campaign is one struct (campaign.go) whose cross-round state is the
// Progress a checkpoint serialises, advanced one hour at a time by three
// steps. plan builds the hour's deterministic task list. execute runs it and
// is the only step that decides how: a round is shed when the circuit
// breaker is open, and otherwise fans out across its simulated measurement
// VMs — one goroutine per VM's test list, bounded by Config.Parallelism —
// only when a test can block: under an active fault profile (timeouts and
// retry backoff sleep). A purely simulated round runs inline
// on the campaign's goroutine under one WorkerPool slot: a VM's hour is ~16
// tests of ~0.3 µs, less than the goroutine hand-off it would ride on, and
// multi-campaign commands already get their parallelism from concurrent
// campaigns. Such a campaign measures each flow through a simulator handle
// resolved by the flow's first test (netsim.Flow), and every campaign
// refills one round, one permutation buffer and one generator hour after
// hour, so a simulated round within a day allocates nothing. Either way
// measurement results land in a slice indexed by the deterministic task
// order, and commit applies every observable side effect — log records,
// report counters (the egress bytes among them), breaker transition,
// watermark, checkpoint — in that order from the campaign's goroutine.
// Because netsim.Sim.Measure is a pure function of (seed, spec), a campaign
// produces bit-identical measurement sets at every parallelism level,
// including 1 (sequential).
package orchestrator

import (
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/cloud"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
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

// testEgressBytes is what one completed test sends out of the cloud at mbps:
// uploads push the full transfer, downloads only return ACKs (~2%).
func testEgressBytes(spec *netsim.TestSpec, mbps float64) int64 {
	xfer := int64(mbps * 1e6 / 8 * spec.DurationSec)
	if spec.Dir == netsim.Upload {
		return xfer
	}
	return xfer / 50
}

// StoreSink indexes records into a time-series store, one series per
// (server, region, tier, dir). The engine indexes a finished campaign's log
// in bulk (Index); Record is the same index one record at a time. It is safe
// for concurrent use: tsdb.Store shards its lock internally, and the sink
// interns one bound series handle per series, so a repeated series skips
// tag construction, key rendering and field-name handling, and inserts its
// three values without allocating.
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

// handle returns the bound handle of a series, interning it on first use.
func (s *StoreSink) handle(server int, region string, tier bgp.Tier, dir netsim.Direction) *tsdb.BoundHandle {
	key := storeSinkKey{server: server, region: region, tier: tier, dir: dir}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, ok := s.handles[key]
	if !ok {
		b = s.Store.Bind(tsdb.Tags{
			"server": strconv.Itoa(server),
			"region": region,
			"tier":   tier.String(),
			"dir":    dir.String(),
		}, "mbps", "rtt_ms", "loss")
		if s.handles == nil {
			s.handles = make(map[storeSinkKey]*tsdb.BoundHandle)
		}
		s.handles[key] = b
	}
	return b
}

// Record indexes one record.
func (s *StoreSink) Record(m analysis.Measurement) {
	s.handle(m.ServerID, m.Region, m.Tier, m.Dir).Insert(m.Time, m.Mbps, m.RTTms, m.Loss)
}

// indexDense bounds the server IDs whose series Index numbers through a
// dense table; IDs outside [0, indexDense) — none a topology assigns — take
// a map.
const indexDense = 1 << 16

// indexSlots numbers the series of one Index pass: by region, then one
// slot per (server ID, tier, dir).
type indexSlots struct {
	dense  [][]int32 // [region][server*4+slot]: series number + 1, 0 while unseen
	sparse map[[3]int]*int32
}

// ref returns the cell that holds the number of series (region, server,
// slot), adding it to the tables; region must be one the tables hold. Index
// reads a cell the dense table already holds without the call.
func (t *indexSlots) ref(region, server, slot int) *int32 {
	if uint(server) >= indexDense {
		key := [3]int{region, server, slot}
		p := t.sparse[key]
		if p == nil {
			if t.sparse == nil {
				t.sparse = make(map[[3]int]*int32)
			}
			p = new(int32)
			t.sparse[key] = p
		}
		return p
	}
	j := server*4 + slot
	if d := t.dense[region]; j >= len(d) {
		t.dense[region] = append(d, make([]int32, j+1-len(d))...)
	}
	return &t.dense[region][j]
}

// Index indexes every record of log, leaving the store as Record of each
// record in log order would. One cursor pass stages the records column-wise
// and numbers each record's series, binding each series once; a counting
// sort then lists the records series by series, each series' in log order,
// and each series' run is gathered into one InsertRows call.
func (s *StoreSink) Index(log *analysis.RecordLog) {
	const need = analysis.ColTime | analysis.ColServer | analysis.ColRegion | analysis.ColTierDir |
		analysis.ColMbps | analysis.ColRTT | analysis.ColLoss
	n := log.Len()
	seriesOf, times := make([]int32, 0, n), make([]int64, 0, n)
	var vals [3][]float64
	for j := range vals {
		vals[j] = make([]float64, 0, n)
	}
	var (
		handles []*tsdb.BoundHandle // by series number
		ends    []int32             // each series' record count, then its run's end
		slots   indexSlots
		regions []string // the log's region names, numbered as first seen
		codes   []int    // the batch's region codes, renumbered
	)
	cur := log.Cursor()
	for b := cur.NextColumns(need); b != nil; b = cur.NextColumns(need) {
		codes = codes[:0]
		for _, name := range b.RegionNames {
			r := slices.Index(regions, name)
			if r < 0 {
				r, regions = len(regions), append(regions, name)
				slots.dense = append(slots.dense, nil)
			}
			codes = append(codes, r)
		}
		for i := range b.N {
			// A series' tags name its tier and direction by String, which
			// tells Premium and Download from everything else.
			slot := 0
			if b.Tiers[i] != bgp.Premium {
				slot = 2
			}
			if b.Dirs[i] != netsim.Download {
				slot++
			}
			r, id := codes[b.Regions[i]], b.Servers[i]
			var ref *int32
			if d, j := slots.dense[r], id*4+slot; uint(id) < indexDense && j < len(d) {
				ref = &d[j]
			} else {
				ref = slots.ref(r, id, slot)
			}
			if *ref == 0 {
				handles = append(handles, s.handle(id, regions[r], b.Tiers[i], b.Dirs[i]))
				ends = append(ends, 0)
				*ref = int32(len(handles))
			}
			seriesOf = append(seriesOf, *ref-1)
			ends[*ref-1]++
		}
		times = append(times, b.Times...)
		vals[0] = append(vals[0], b.Mbps...)
		vals[1] = append(vals[1], b.RTTms...)
		vals[2] = append(vals[2], b.Loss...)
	}
	at := int32(0)
	for k, c := range ends {
		ends[k] = at // the run's start, advanced to its end as order fills
		at += c
	}
	order := make([]int32, n)
	for i, k := range seriesOf {
		order[ends[k]] = int32(i)
		ends[k]++
	}
	var runTimes []int64
	var runVals [3][]float64
	start := int32(0)
	for k, end := range ends {
		rows := order[start:end]
		runTimes = slices.Grow(runTimes[:0], len(rows))[:len(rows)]
		for j := range runVals {
			runVals[j] = slices.Grow(runVals[j][:0], len(rows))[:len(rows)]
		}
		for p, i := range rows {
			runTimes[p], runVals[0][p], runVals[1][p], runVals[2][p] = times[i], vals[0][i], vals[1][i], vals[2][i]
		}
		handles[k].InsertRows(runTimes, runVals[0], runVals[1], runVals[2])
		start = end
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
	// hourly test lists — and how many follow-up traceroutes run —
	// concurrently when tests can block (under an active fault profile;
	// see the package's round model). 0 or 1 runs sequentially.
	// The measurement set is bit-identical at every setting.
	Parallelism int
	// Faults selects the fault-injection profile and the resilience policy
	// the campaign runs under (internal/faults). The zero profile — or the
	// canned "none" — injects nothing and leaves execution bit-identical
	// to a fault-free engine, pinned by TestFaultProfileNoneBitIdentical.
	// Active profiles keep campaigns deterministic per Seed at any
	// Parallelism: every injection decision, retry delay and breaker
	// transition is a pure function of the seed and task coordinates.
	Faults faults.Profile
	// CheckpointEvery calls OnCheckpoint whenever the completed-hour
	// watermark reaches a multiple of N, and at the campaign's last hour
	// whether or not N divides it; 0 and 1 both mean every round.
	CheckpointEvery int
	// OnCheckpoint receives the campaign's Progress at each checkpoint
	// boundary. A returned error aborts the campaign — by then the
	// covered records are already durable, so callers use a sentinel
	// error to stop a campaign with a valid checkpoint on disk (the
	// in-process resume tests do exactly that). nil disables checkpointing.
	OnCheckpoint func(Progress) error
	// Resume continues a campaign from a checkpointed Progress instead of
	// from hour zero. The caller's log must already hold the checkpoint's
	// records: Run only re-executes rounds from Progress.NextHour on,
	// appending to the same log. Every other Config field must match
	// the original run for the byte-identical guarantee to hold.
	Resume *Progress
	// Workers, when set, is a command-wide VM-worker budget shared with the
	// other campaigns of a multi-campaign command: every fanned-out VM-hour
	// or traceroute, and every inline round or traceroute batch, holds a
	// pool slot while it runs, so concurrent campaigns together never exceed
	// the pool's capacity even though each may spawn up to Parallelism
	// goroutines. nil keeps the historical per-campaign budget. Purely a
	// scheduling constraint — the measurement set stays bit-identical with
	// or without it.
	Workers *WorkerPool
	// OnRound is called after each completed round (hour) with the
	// campaign's completed-hour watermark and total hours, from the
	// campaign's own goroutine. Multi-campaign schedulers use it to
	// aggregate whole-command progress; nil disables it.
	OnRound func(done, total int)
}

// Progress is the cross-round state of a running campaign — everything
// mutable that survives from one hourly round to the next. It is not a copy
// of that state: the round loop's campaign struct embeds it and mutates it
// in place, and a checkpoint serialises it as it stands. Together with the
// campaign Config (seed included) it determines the rest of the run
// exactly: per-hour test orders, fault decisions and measurement results
// are pure functions of (seed, coordinates), so a campaign resumed from a
// Progress re-executes the remaining rounds bit-identically at any
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
	// Breaker is the circuit breaker's dynamic state, transitioned in place
	// by the campaign's faults.Breaker (zero when the profile has none).
	Breaker faults.BreakerStatus `json:"breaker"`

	// The last two are held by other owners while the campaign runs — the
	// platform and the VM slots — so they are set only in the value handed
	// to OnCheckpoint (campaign.checkpointState) and handed back by restore.

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

// hourOrder fills order with the randomised server visit order of one
// campaign hour: rand.New(rand.NewSource(hourSeed(seed, hour))).Perm(n) —
// re-seeding rng restarts its source's sequence and the loop is Perm's own,
// which never reads an element it has not written — without the slice a
// fresh generator costs every hour. A campaign's rng draws from an
// hourSource, whose Seed costs nothing until a word is read.
func hourOrder(rng *rand.Rand, seed int64, hour int, order []int) {
	rng.Seed(hourSeed(seed, hour))
	for i := range order {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = i
	}
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
	Region      string
	VMs         int
	Tests       int
	Hours       int
	Traceroutes int
	Captures    int
	// MaxVMCPUUtil is the peak of the VMs' SoMeta CPU samples: host
	// telemetry, not part of the deterministic measurement set, and never
	// rendered.
	MaxVMCPUUtil float64
	// EgressBytes, indexed by bgp.Tier, is what the completed tests sent
	// out of the cloud: integer bytes, so the bill is exact in any order.
	// finish folds it into the platform once, and a resumed run carries
	// it in with the rest of the checkpointed report.
	EgressBytes [2]int64

	Resilience
}

// Resilience is the resilience accounting of a campaign, a round or one
// VM's hour, all zero when fault-free. Every scheduled test either completes
// (Report.Tests) or is Dropped — after exhausting its retry budget, hitting
// a server-unavailability window, losing its VM for the hour, or being shed
// by an open breaker. Failed counts failed executions (a test that fails
// twice counts twice) and Retried the re-executions, so Failed >= Dropped.
// Each VM goroutine fills its own value and the round sums them after it
// joins, so the counts are deterministic at any parallelism.
type Resilience struct {
	Failed            int
	Retried           int
	Dropped           int
	Preemptions       int
	VMCreateRetries   int
	BreakerOpenRounds int
}

func (r *Resilience) add(o Resilience) {
	r.Failed += o.Failed
	r.Retried += o.Retried
	r.Dropped += o.Dropped
	r.Preemptions += o.Preemptions
	r.VMCreateRetries += o.VMCreateRetries
	r.BreakerOpenRounds += o.BreakerOpenRounds
}

// Run executes the campaign, appending its measurements to log. The
// campaign is a state machine over one struct: each hour is planned from
// the state, executed without touching it, and committed into it
// (campaign.go).
func (o *Orchestrator) Run(cfg Config, log *analysis.RecordLog) (*Report, error) {
	c, err := o.newCampaign(cfg, log)
	if err != nil {
		return nil, err
	}
	defer c.close()
	for c.NextHour < c.total {
		c.plan()
		if err := c.execute(); err != nil {
			return nil, err
		}
		if err := c.commit(); err != nil {
			return nil, err
		}
	}
	return c.finish(), nil
}
