// Package core is the CLASP engine: it owns the synthetic Internet, the
// cloud substrate and the data pipeline, runs the paper's two selection
// methods and measurement campaigns, and regenerates every table and
// figure of the evaluation (Table 1, Figs. 2-8).
package core

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/cloud"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/speedchecker"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// CampaignStart is the virtual-time start of the paper's measurement
// window (May 1, 2020).
var CampaignStart = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// TopologyRegions are the US regions measured with the topology-based
// method; Table 1 reports five of them and Fig. 2 adds us-west4.
var TopologyRegions = []string{
	"us-west1", "us-west2", "us-west4", "us-east1", "us-east4", "us-central1",
}

// Table1Regions are the regions in Table 1.
var Table1Regions = []string{
	"us-west1", "us-west2", "us-east1", "us-east4", "us-central1",
}

// DifferentialRegions ran the two-tier experiments.
var DifferentialRegions = []string{"us-central1", "us-east1", "europe-west1"}

// RegionBudgets caps per-region deployments (the paper deployed every
// selected server in us-west1/us-east1 but only subsets elsewhere).
var RegionBudgets = map[string]int{
	"us-west1":    106,
	"us-west2":    25,
	"us-west4":    25,
	"us-east1":    184,
	"us-east4":    40,
	"us-central1": 56,
}

// Substrate is the immutable, shareable half of an engine: the generated
// topology and its BGP router. Both are pure functions of the topology
// config and safe for concurrent use (the router's tree caches fill
// concurrently and deterministically), so any number of engines — and the
// campaigns running on them — can share one substrate with bit-identical
// results. Everything stateful (cloud control plane, cost meters, tsdb
// store, flow caches) stays per-engine.
type Substrate struct {
	Topo   *topology.Topology
	Router *bgp.Router
}

// NewSubstrate generates the shared substrate for a topology config.
func NewSubstrate(cfg topology.Config) (*Substrate, error) {
	topo, err := topology.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: building topology: %w", err)
	}
	return &Substrate{Topo: topo, Router: bgp.NewRouter(topo)}, nil
}

// CLASP is a fully wired platform instance.
type CLASP struct {
	Opts    Options
	Topo    *topology.Topology
	Sim     *netsim.Sim
	Cloud   *cloud.Platform
	Bucket  *cloud.Bucket
	Store   *tsdb.Store
	Mapper  *bdrmap.Mapper
	Checker *speedchecker.Platform

	// testCheckpointHook runs after every committed checkpoint; core's
	// resume tests return a sentinel error from it to stop a campaign
	// with a valid checkpoint on disk.
	testCheckpointHook func(orchestrator.Progress) error

	// pool is the engine-wide VM-worker budget: Opts.Parallelism slots
	// shared by every campaign this engine runs, so concurrent campaigns
	// (report all, costs) together never exceed the requested parallelism.
	// A lone campaign sees an uncontended pool of exactly its own size —
	// behaviour and bytes unchanged.
	pool *orchestrator.WorkerPool

	// views is the allowance every campaign result of this engine offers
	// its grouped views to (CampaignResult.SeriesAndPartitions).
	views *viewAllowance

	// Selection memos. The two selection methods are pure functions of the
	// seed, but expensive — at paper scale they dominate `report all`
	// (Table 1, Fig. 7 and the campaigns each re-ran them before this
	// cache). Each key is a once-cell: selMu guards only the map lookup, so
	// selections for different keys run concurrently (the simulator, the
	// bdrmap mapper and the alias prober hold no mutable state beyond
	// concurrency-safe caches) and concurrent callers of one key share a
	// single computation.
	selMu     sync.Mutex
	topoSels  map[string]*topoSelMemo
	diffSels  map[diffSelKey]*diffSelMemo
	diffScans map[int]*diffScanMemo // by minSamples

	// sched, when non-nil, is the command scheduler coordinating this
	// engine's campaigns; runCampaign reports round completions to it.
	sched *CommandScheduler

	// regionLocks serialize campaigns measuring the same region. VM names
	// (clasp-<region>-<tier>-<i>) and the platform's per-name fault
	// counters are scoped by region only, so a topology and a differential
	// campaign in one region must never deploy concurrently; campaigns in
	// different regions still overlap freely.
	regionMu    sync.Mutex
	regionLocks map[string]*sync.Mutex
}

type topoSelMemo struct {
	once sync.Once
	sel  *selection.TopoResult
	err  error
}

type diffSelKey struct {
	region     string
	minSamples int
}

type diffSelMemo struct {
	once   sync.Once
	sel    []selection.DiffSelected
	deltas []speedchecker.TierDelta
	err    error
}

// diffScanMemo is one preliminary scan of every DifferentialRegions region.
type diffScanMemo struct {
	once sync.Once
	aggs []speedchecker.Aggregate
}

// New builds a CLASP instance.
func New(opts Options) (*CLASP, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid options: %w", err)
	}
	// Only a finished campaign spills, so a spill directory that is not
	// there would otherwise be found after the campaign was measured.
	if opts.MaxMemoryMB > 0 && opts.SpillDir != "" {
		if fi, err := os.Stat(opts.SpillDir); err != nil {
			return nil, fmt.Errorf("core: invalid options: spillDir: %w", err)
		} else if !fi.IsDir() {
			return nil, fmt.Errorf("core: invalid options: spillDir: %s is not a directory", opts.SpillDir)
		}
	}
	tcfg := topology.PaperScaleConfig()
	tcfg.Scale, tcfg.Seed = opts.Scale, opts.Seed
	var topo *topology.Topology
	var router *bgp.Router
	if opts.Substrate != nil {
		if !reflect.DeepEqual(opts.Substrate.Topo.Cfg, tcfg) {
			return nil, fmt.Errorf("core: substrate topology config does not match options (substrate seed %d scale %v, options seed %d scale %v)",
				opts.Substrate.Topo.Cfg.Seed, opts.Substrate.Topo.Cfg.Scale, tcfg.Seed, tcfg.Scale)
		}
		topo, router = opts.Substrate.Topo, opts.Substrate.Router
	} else {
		var err error
		topo, err = topology.New(tcfg)
		if err != nil {
			return nil, fmt.Errorf("core: building topology: %w", err)
		}
		router = bgp.NewRouter(topo)
	}
	sim := netsim.New(topo, router, netsim.DefaultConfig(opts.Seed))
	platform := cloud.New(topo, cloud.Pricing{})
	// The paper centralised processing and storage in one bucket.
	bucket := platform.CreateBucket()
	return &CLASP{
		Opts:        opts,
		Topo:        topo,
		Sim:         sim,
		Cloud:       platform,
		Bucket:      bucket,
		Store:       tsdb.NewStore(),
		Mapper:      bdrmap.FromTopology(topo, alias.NewProber(topo, opts.Seed)),
		Checker:     speedchecker.New(sim),
		pool:        orchestrator.NewWorkerPool(opts.Parallelism),
		views:       &viewAllowance{limit: opts.halfBudget()},
		topoSels:    make(map[string]*topoSelMemo),
		diffSels:    make(map[diffSelKey]*diffSelMemo),
		diffScans:   make(map[int]*diffScanMemo),
		regionLocks: make(map[string]*sync.Mutex),
	}, nil
}

// lockRegion acquires the region's campaign lock and returns its release.
func (c *CLASP) lockRegion(region string) func() {
	c.regionMu.Lock()
	mu, ok := c.regionLocks[region]
	if !ok {
		mu = &sync.Mutex{}
		c.regionLocks[region] = mu
	}
	c.regionMu.Unlock()
	mu.Lock()
	return mu.Unlock
}

// SelectTopologyServers runs the topology-based method for one region,
// applying the region's budget from RegionBudgets. The result is memoized
// per region for the engine's lifetime — the selection is a pure function
// of the seed (a resume re-plans every campaign on that), and one `report
// all` used to recompute the same regions for Table 1, Fig. 7 and the
// campaigns. Safe for concurrent use: callers for different regions run
// side by side, callers for one region share one computation.
func (c *CLASP) SelectTopologyServers(region string) (*selection.TopoResult, error) {
	c.selMu.Lock()
	m, ok := c.topoSels[region]
	if !ok {
		m = &topoSelMemo{}
		c.topoSels[region] = m
	}
	c.selMu.Unlock()
	m.once.Do(func() {
		m.sel, m.err = selection.TopologyBased(c.Sim, c.Mapper, selection.TopoParams{
			Region:      region,
			Budget:      RegionBudgets[region],
			Seed:        c.Opts.Seed,
			Parallelism: c.Opts.Parallelism,
		})
	})
	return m.sel, m.err
}

// SelectDifferentialServers runs the preliminary latency scan and the
// differential-based method for one region. minSamples scales with the
// topology (the paper's >= 100 rule assumes Speedchecker-scale VP counts).
// Like the topology method, results are memoized in a once-cell per
// (region, minSamples). The scan is memoized too: the first call for any
// region of DifferentialRegions scans all of them at once, as one platform
// sends one probe schedule to every target, and each later call takes its
// region's aggregates from that scan. A region's aggregates do not depend
// on which regions share its scan, so the selection is the one a scan of
// the region alone gives. Any other region scans alone.
func (c *CLASP) SelectDifferentialServers(region string, minSamples int) ([]selection.DiffSelected, []speedchecker.TierDelta, error) {
	if minSamples <= 0 {
		minSamples = 100
	}
	key := diffSelKey{region, minSamples}
	c.selMu.Lock()
	m, ok := c.diffSels[key]
	if !ok {
		m = &diffSelMemo{}
		c.diffSels[key] = m
	}
	c.selMu.Unlock()
	m.once.Do(func() {
		m.sel, m.deltas, m.err = selectFromScan(c.Topo, region, minSamples, c.preliminary(region, minSamples))
	})
	return m.sel, m.deltas, m.err
}

// preliminary returns region's preliminary-scan aggregates, sorted by key.
func (c *CLASP) preliminary(region string, minSamples int) []speedchecker.Aggregate {
	if !slices.Contains(DifferentialRegions, region) {
		return c.Checker.RunPreliminary(c.scanParams([]string{region}, minSamples))
	}
	c.selMu.Lock()
	m, ok := c.diffScans[minSamples]
	if !ok {
		m = &diffScanMemo{}
		c.diffScans[minSamples] = m
	}
	c.selMu.Unlock()
	m.once.Do(func() {
		m.aggs = c.Checker.RunPreliminary(c.scanParams(DifferentialRegions, minSamples))
	})
	// The aggregates sort by region first.
	lo := sort.Search(len(m.aggs), func(i int) bool { return m.aggs[i].Key.Region >= region })
	hi := sort.Search(len(m.aggs), func(i int) bool { return m.aggs[i].Key.Region > region })
	return m.aggs[lo:hi]
}

func (c *CLASP) scanParams(regions []string, minSamples int) speedchecker.Params {
	return speedchecker.Params{
		Regions:     regions,
		MinSamples:  minSamples,
		Start:       CampaignStart.Add(-30 * 24 * time.Hour),
		Parallelism: c.Opts.Parallelism,
	}
}

// selectFromScan is the differential-based method over one region's
// preliminary-scan aggregates.
func selectFromScan(topo *topology.Topology, region string, minSamples int, aggs []speedchecker.Aggregate) ([]selection.DiffSelected, []speedchecker.TierDelta, error) {
	deltas := speedchecker.Deltas(aggs)
	target := 15
	if region == "europe-west1" {
		target = 17
	}
	sel, err := selection.DifferentialBased(topo, deltas, selection.DiffParams{
		Region:     region,
		Target:     target,
		MinSamples: minSamples,
	})
	if err != nil {
		return nil, nil, err
	}
	return sel, deltas, nil
}

// CampaignResult bundles a campaign's records with its selection and
// orchestration report. Log holds every record in delivery order and is
// non-nil for every result the engine returns: compressed blocks resident
// in memory, or spilled to disk when the campaign exceeded the
// Options.MaxMemoryMB budget. Analyses read it through Cursor or
// SeriesAndPartitions.
type CampaignResult struct {
	Region   string
	Log      *analysis.RecordLog
	Report   *orchestrator.Report
	Selected []*topology.Server

	// parallelism is the engine's Opts.Parallelism: how many block ranges
	// of Log the grouping kernel scans at once.
	parallelism int
	allowance   *viewAllowance // the engine's
	views       [2]tierViews   // indexed by bgp.Tier
}

// tierViews holds one tier's download view once the allowance admitted
// it. mu is held while the view is grouped, so concurrent callers wait for
// the first instead of grouping beside it.
type tierViews struct {
	mu    sync.Mutex
	held  *tierView // nil until admitted
	bytes int64
}

// tierView is one tier's download view of a campaign: the per-pair series,
// their index-aligned day partitions and, once asked for, Fig. 4's points
// over the series. It is safe for concurrent use.
type tierView struct {
	series []analysis.SeriesWithServer
	parts  []*congestion.Partition

	pointsOnce sync.Once
	points     []analysis.PerfPoint
}

// perfPoints returns Fig. 4's points of the view's series, computed on the
// first call; the result is shared and must not be modified.
func (v *tierView) perfPoints() []analysis.PerfPoint {
	v.pointsOnce.Do(func() { v.points = analysis.PerfPointsOfSeries(v.series) })
	return v.points
}

// viewAllowance is the engine-wide allowance for the views its campaign
// results hold: half of Options.MaxMemoryMB, or no limit without a budget.
type viewAllowance struct {
	limit int64 // bytes; 0 = no limit
	mu    sync.Mutex
	held  int64
}

// admit reserves n bytes for a view and reports whether they fit.
func (a *viewAllowance) admit(n int64) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.limit > 0 && a.held+n > a.limit {
		return false
	}
	a.held += n
	return true
}

// release returns the bytes of a dropped view.
func (a *viewAllowance) release(n int64) {
	a.mu.Lock()
	a.held -= n
	a.mu.Unlock()
}

// SeriesAndPartitions returns the campaign's per-pair download series of
// one tier and their index-aligned day partitions: the series and
// partitions of view(tier).
func (r *CampaignResult) SeriesAndPartitions(tier bgp.Tier) ([]analysis.SeriesWithServer, []*congestion.Partition) {
	v := r.view(tier)
	return v.series, v.parts
}

// view returns the campaign's download view of one tier, grouped over the
// log's block ranges (ranges) and partitioned on as many workers. The first
// caller groups while concurrent callers wait, and offers the view's bytes
// (viewBytes) to the engine's allowance. An admitted view is kept and
// shared with every later caller, Fig. 4's points with it once built; a
// view that does not fit goes to its caller only, and the next caller
// groups again. A view is a pure function of the log, so either way every
// caller gets the same answer.
func (r *CampaignResult) view(tier bgp.Tier) *tierView {
	tv := &r.views[tier]
	tv.mu.Lock()
	defer tv.mu.Unlock()
	if tv.held != nil {
		return tv.held
	}
	series := analysis.GroupSeriesWithServerRanges(r.ranges(), netsim.Download, tier)
	v := &tierView{series: series, parts: make([]*congestion.Partition, len(series))}
	analysis.ParallelFor(r.parallelism, len(series), func(i int) {
		v.parts[i] = congestion.NewPartition(series[i].Series)
	})
	if n := viewBytes(v); r.allowance.admit(n) {
		tv.held, tv.bytes = v, n
	}
	return v
}

// viewBytes is what a tier's view holds once every partition's verdict and
// Fig. 4's points are built: the series headers and partition pointers,
// each series' samples, latencies and pair ID, each partition, and one
// point per series and calendar month (the region names are the log's).
func viewBytes(v *tierView) int64 {
	n := int64(len(v.series))*int64(unsafe.Sizeof(analysis.SeriesWithServer{})+unsafe.Sizeof(&congestion.Partition{})) +
		int64(analysis.PerfPointCount(v.series))*int64(unsafe.Sizeof(analysis.PerfPoint{}))
	for i := range v.series {
		sw := &v.series[i]
		n += int64(len(sw.Series.Samples))*int64(unsafe.Sizeof(congestion.Sample{})) +
			int64(len(sw.LatMs))*int64(unsafe.Sizeof(float64(0))) + int64(len(sw.Series.PairID)) + v.parts[i].Bytes()
	}
	return n
}

// ranges splits the campaign's records into one cursor per analysis worker
// (RecordLog.Cursors): at parallelism 1, the one cursor of Cursor.
func (r *CampaignResult) ranges() []analysis.Cursor { return r.Log.Cursors(r.parallelism) }

// Cursor returns a fresh replayable cursor over the campaign's records in
// delivery order. Cursors are independent — concurrent analysis workers
// each open their own.
func (r *CampaignResult) Cursor() analysis.Cursor { return r.Log.Cursor() }

// NumRecords returns the number of measurement records the campaign
// produced.
func (r *CampaignResult) NumRecords() int { return r.Log.Len() }

// FirstRecord returns the first delivered record (zero value when empty).
func (r *CampaignResult) FirstRecord() analysis.Measurement { return r.Log.First() }

// LastRecord returns the last delivered record (zero value when empty).
func (r *CampaignResult) LastRecord() analysis.Measurement { return r.Log.Last() }

// Close drops the views the result holds, returning their bytes to the
// engine's allowance, and releases the spill file behind an over-budget
// campaign's record log. A resident log's cursors keep working, and a
// later SeriesAndPartitions groups again. Long-lived processes that discard
// results should call it; short-lived CLI runs may rely on process exit
// (spill files are unlinked at creation).
func (r *CampaignResult) Close() error {
	for i := range r.views {
		v := &r.views[i]
		v.mu.Lock()
		if v.held != nil {
			r.allowance.release(v.bytes)
			v.held, v.bytes = nil, 0
		}
		v.mu.Unlock()
	}
	return r.Log.Close()
}

// storeIndexLimit bounds how large a campaign still gets indexed into the
// shared time-series store, which holds every indexed campaign for the
// engine's lifetime; larger campaigns (paper scale and up) live only in
// their record log, keeping memory proportional to one campaign. No
// program queries the store.
const storeIndexLimit = 250_000

// campaignIdentity records what a checkpoint needs to rebuild this
// campaign: the selection method, the campaign shape, and the engine's
// identity.
func (c *CLASP) campaignIdentity(kind, region string, days, minSamples int) checkpoint.Campaign {
	return checkpoint.Campaign{
		Kind:       kind,
		Region:     region,
		Days:       days,
		Identity:   c.Opts.Identity(),
		MinSamples: minSamples,
	}
}

func (c *CLASP) runCampaign(camp checkpoint.Campaign, servers []*topology.Server, tiers []bgp.Tier, resume *checkpoint.Checkpoint) (*CampaignResult, error) {
	region, days := camp.Region, camp.Days
	prof, err := faults.Named(c.Opts.FaultProfile)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	orch := orchestrator.New(c.Sim, c.Cloud, c.Bucket)
	// est is the record-count upper bound the orchestrator plans for, so
	// every size decision is made before any record exists: it gates the
	// store index and — against the memory budget — whether the finished
	// log is spilled.
	est := len(servers) * days * 24 * 2 * len(tiers)
	half := c.Opts.halfBudget()
	overBudget := half > 0 && int64(est)*analysis.MeasurementBytes > half

	// One record log per campaign, and the checkpoint sidecar holds its
	// sealed blocks: a resume continues on the log the checkpoint loaded,
	// and its writer keeps appending to the same sidecar in the
	// checkpoint's own directory.
	var log *analysis.RecordLog
	var ckWriter *checkpoint.Writer
	if resume != nil {
		log, ckWriter, err = resume.Resume(camp)
		if err != nil {
			return nil, fmt.Errorf("core: resuming campaign in %s: %w", region, err)
		}
	} else {
		log = analysis.NewRecordLog()
		if dir := c.Opts.CheckpointDir; dir != "" {
			ckWriter, err = checkpoint.NewWriter(filepath.Join(dir, checkpoint.CampaignDir(camp)), camp, log)
			if err != nil {
				return nil, fmt.Errorf("core: %w", err)
			}
		}
	}
	cfg := orchestrator.Config{
		Region:          region,
		Servers:         servers,
		Tiers:           tiers,
		Start:           CampaignStart,
		Days:            days,
		Seed:            c.Opts.Seed,
		Parallelism:     c.Opts.Parallelism,
		CaptureEvery:    c.Opts.CaptureEvery,
		TracerouteEvery: c.Opts.TracerouteEvery,
		Faults:          prof,
		Workers:         c.pool,
	}
	if s := c.sched; s != nil {
		cfg.OnRound = s.roundDone
	}
	if ckWriter != nil {
		cfg.CheckpointEvery = camp.CheckpointEvery
		hook := c.testCheckpointHook
		cfg.OnCheckpoint = func(p orchestrator.Progress) error {
			if err := ckWriter.Commit(p); err != nil {
				return err
			}
			if hook != nil {
				return hook(p)
			}
			return nil
		}
	}
	if resume != nil {
		cfg.Resume = &resume.Meta.Progress
	}
	// The deploy/measure/teardown window holds the region lock: VM names
	// and the platform's per-name fault counters are region-scoped, so two
	// campaigns in one region must not hold live VMs at the same time.
	unlock := c.lockRegion(region)
	rep, err := orch.Run(cfg, log)
	if err == nil && est <= storeIndexLimit {
		// The finished log, checkpointed records and all, goes into the
		// index in one pass; a failed campaign indexes nothing. Indexing
		// under the region lock keeps a series that two campaigns of the
		// region share filled in the order the campaigns ran.
		(&orchestrator.StoreSink{Store: c.Store}).Index(log)
	}
	unlock()
	if err != nil {
		return nil, fmt.Errorf("core: campaign in %s: %w", region, err)
	}
	if overBudget {
		// Spilling moves the compressed blocks to disk, so the log's
		// resident footprint is a few cursor batches regardless of campaign
		// size; the views grouped from it answer to the view allowance.
		if err := log.Spill(c.Opts.SpillDir); err != nil {
			return nil, fmt.Errorf("core: spilling campaign records in %s: %w", region, err)
		}
	}
	return &CampaignResult{
		Region:      region,
		Log:         log,
		Report:      rep,
		Selected:    servers,
		parallelism: c.Opts.Parallelism,
		allowance:   c.views,
	}, nil
}
