// Package core is the CLASP engine: it owns the synthetic Internet, the
// cloud substrate and the data pipeline, runs the paper's two selection
// methods and measurement campaigns, and regenerates every table and
// figure of the evaluation (Table 1, Figs. 2-8).
package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"time"

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
	Opts     Options
	Topo     *topology.Topology
	Router   *bgp.Router
	Sim      *netsim.Sim
	Cloud    *cloud.Platform
	Bucket   *cloud.Bucket
	Store    *tsdb.Store
	Mapper   *bdrmap.Mapper
	Resolver *alias.Prober
	Checker  *speedchecker.Platform

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

	// Selection memos. The two selection methods are pure functions of the
	// seed, but expensive — at paper scale they dominate `report all`
	// (Table 1, Fig. 7 and the campaigns each re-ran them before this
	// cache). Each key is a once-cell: selMu guards only the map lookup, so
	// selections for different keys run concurrently (the simulator, the
	// bdrmap mapper and the alias prober hold no mutable state beyond
	// concurrency-safe caches) and concurrent callers of one key share a
	// single computation.
	selMu    sync.Mutex
	topoSels map[string]*topoSelMemo
	diffSels map[diffSelKey]*diffSelMemo

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

// New builds a CLASP instance.
func New(opts Options) (*CLASP, error) {
	opts = opts.WithDefaults()
	if err := opts.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid options: %w", err)
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
	platform := cloud.New(topo, sim, cloud.Pricing{})
	// The paper centralised processing and storage in one region.
	bucket, err := platform.CreateBucket("clasp-results", "us-east1")
	if err != nil {
		return nil, fmt.Errorf("core: creating results bucket: %w", err)
	}
	resolver := alias.NewProber(topo, opts.Seed)
	return &CLASP{
		Opts:        opts,
		Topo:        topo,
		Router:      router,
		Sim:         sim,
		Cloud:       platform,
		Bucket:      bucket,
		Store:       tsdb.NewStore(),
		Mapper:      bdrmap.FromTopology(topo, resolver),
		Resolver:    resolver,
		Checker:     speedchecker.New(sim),
		pool:        orchestrator.NewWorkerPool(opts.Parallelism),
		topoSels:    make(map[string]*topoSelMemo),
		diffSels:    make(map[diffSelKey]*diffSelMemo),
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
// of the seed (ResumeCampaign has always relied on that), and one `report
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
// (region, minSamples).
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
		m.sel, m.deltas, m.err = c.selectDifferentialServers(region, minSamples)
	})
	return m.sel, m.deltas, m.err
}

func (c *CLASP) selectDifferentialServers(region string, minSamples int) ([]selection.DiffSelected, []speedchecker.TierDelta, error) {
	aggs := c.Checker.RunPreliminary(speedchecker.Params{
		Regions:     []string{region},
		MinSamples:  minSamples,
		Start:       CampaignStart.Add(-30 * 24 * time.Hour),
		Parallelism: c.Opts.Parallelism,
	})
	deltas := speedchecker.Deltas(aggs)
	target := 15
	if region == "europe-west1" {
		target = 17
	}
	sel, err := selection.DifferentialBased(c.Topo, deltas, selection.DiffParams{
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
	// of Log the grouping and perf-point kernels scan at once.
	parallelism int
	views       [2]tierViews // indexed by bgp.Tier; used while Log is resident
}

// tierViews memoises one tier's download views over a resident log.
type tierViews struct {
	once   sync.Once
	series []analysis.SeriesWithServer
	parts  []*congestion.Partition // index-aligned with series
}

// SeriesAndPartitions returns the campaign's per-pair download series of
// one tier and their index-aligned day partitions, grouped over the log's
// block ranges (ranges) and partitioned on as many workers. A resident log
// is grouped once per tier, by the first caller, and every later or
// concurrent caller shares those views (a partition is safe for concurrent
// use). A spilled log is regrouped on every call, so an
// over-budget campaign holds no views between analyses.
func (r *CampaignResult) SeriesAndPartitions(tier bgp.Tier) ([]analysis.SeriesWithServer, []*congestion.Partition) {
	group := func() ([]analysis.SeriesWithServer, []*congestion.Partition) {
		sw := analysis.GroupSeriesWithServerRanges(r.ranges(), netsim.Download, tier)
		parts := make([]*congestion.Partition, len(sw))
		analysis.ParallelFor(r.parallelism, len(sw), func(i int) {
			parts[i] = congestion.NewPartition(sw[i].Series)
		})
		return sw, parts
	}
	if r.Log.Spilled() {
		return group()
	}
	v := &r.views[tier]
	v.once.Do(func() { v.series, v.parts = group() })
	return v.series, v.parts
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

// Close releases the spill file behind an over-budget campaign's record
// log; it is a no-op for a resident log, whose cursors keep working.
// Long-lived processes that discard results should call it; short-lived CLI
// runs may rely on process exit (spill files are unlinked at creation).
func (r *CampaignResult) Close() error { return r.Log.Close() }

// RunTopologyCampaign selects servers with the topology-based method and
// measures them hourly (premium tier) for the given number of days.
func (c *CLASP) RunTopologyCampaign(region string, days int) (*CampaignResult, *selection.TopoResult, error) {
	p, err := c.PlanTopologyCampaign(region, days)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.RunPlanned(p)
	if err != nil {
		return nil, nil, err
	}
	return res, p.TopoSel, nil
}

// RunDifferentialCampaign selects servers with the differential-based
// method and measures them hourly over both tiers.
func (c *CLASP) RunDifferentialCampaign(region string, days, minSamples int) (*CampaignResult, []selection.DiffSelected, error) {
	p, err := c.PlanDifferentialCampaign(region, days, minSamples)
	if err != nil {
		return nil, nil, err
	}
	res, err := c.RunPlanned(p)
	if err != nil {
		return nil, nil, err
	}
	return res, p.DiffSel, nil
}

// storeIndexLimit bounds how large a campaign still gets indexed into the
// shared time-series store. The store powers interactive queries; bulk
// paper-scale campaigns (millions of records) stay in the returned result
// to keep memory proportional to one campaign.
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
	// interactive store index and — against the memory budget — whether the
	// finished log is spilled.
	est := len(servers) * days * 24 * 2 * len(tiers)
	budget := int64(c.Opts.MaxMemoryMB) << 20
	overBudget := budget > 0 && int64(est)*analysis.MeasurementBytes > budget/2

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
	sinks := orchestrator.MultiSink{&orchestrator.LogSink{Log: log}}
	if est <= storeIndexLimit {
		sinks = append(sinks, &orchestrator.StoreSink{Store: c.Store})
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
		// The log already holds the checkpointed records; replay them into
		// what it does not hold — the store index and the egress meter, with
		// the emit phase's formula, so a resumed `costs` bills the same
		// transfers as an uninterrupted run. The orchestrator then
		// re-executes only from the watermark.
		index := sinks[1:]
		cur := log.Cursor()
		for batch := cur.Next(); batch != nil; batch = cur.Next() {
			for _, m := range batch {
				index.Record(m)
				c.Cloud.RecordEgress(m.Tier, orchestrator.TestEgressBytes(m, 0))
			}
		}
		cfg.Resume = &resume.Meta.Progress
	}
	// The deploy/measure/teardown window holds the region lock: VM names
	// and the platform's per-name fault counters are region-scoped, so two
	// campaigns in one region must not hold live VMs at the same time.
	unlock := c.lockRegion(region)
	rep, err := orch.Run(cfg, sinks)
	unlock()
	if err != nil {
		return nil, fmt.Errorf("core: campaign in %s: %w", region, err)
	}
	if overBudget {
		// Spilling moves the compressed blocks to disk, so the result's
		// resident footprint is a few cursor batches regardless of campaign
		// size.
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
	}, nil
}

// ResumeCampaign continues a checkpointed campaign to completion on this
// engine and returns the same result an uninterrupted run would have: the
// server selection is re-run (it is a pure function of the seed), the
// campaign continues on the record log the checkpoint loaded, and the
// remaining rounds re-execute from the watermark. The engine must be built
// with options matching the checkpoint's identity (see ResumeOptions); new
// checkpoints keep committing into the checkpoint's own directory.
func (c *CLASP) ResumeCampaign(ck *checkpoint.Checkpoint) (*CampaignResult, error) {
	camp := ck.Meta.Campaign
	if err := c.checkCampaignIdentity(camp.Identity); err != nil {
		return nil, err
	}
	p, err := c.PlanRef(CampaignRef{Kind: camp.Kind, Region: camp.Region, Days: camp.Days, MinSamples: camp.MinSamples})
	if err != nil {
		return nil, err
	}
	p.ck = ck
	return c.RunPlanned(p)
}
