package orchestrator

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"math/rand"
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
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

// campaign is one Run. The embedded Progress is its live cross-round state:
// commit mutates it in place and a checkpoint serialises it as it stands, so
// there is no second copy to keep in step. Every other field is rebuilt by
// newCampaign from (Config, Progress), on a fresh start and on resume alike;
// TestCampaignStateIsCheckpointed fails on a field that is neither.
type campaign struct {
	Progress

	o          *Orchestrator
	cfg        Config // defaults applied
	log        *analysis.RecordLog
	total      int // campaign length in hours
	perTierVMs int

	// Fault machinery. A nil injector — the common case — short-circuits
	// every fault branch, keeping the fault-free path identical to an engine
	// without this layer; the breaker is nil with it and never opens.
	inj     *faults.Injector
	pol     faults.Profile  // the injector's, defaults filled; zero without one
	breaker *faults.Breaker // transitions Progress.Breaker
	// canBlock is the one observation that decides how work fans out: a
	// test can block only under an active fault profile.
	canBlock bool

	// What the schedule repeats, held once. flows is the simulator's handle
	// of every scheduled flow, indexed (tier, server, direction) and resolved
	// by the flow's first test; only the campaign whose tests cannot block
	// reads it, inline on its own goroutine, so it needs no lock. round is the
	// one round value plan refills, and order and rng the server permutation
	// buffer and its generator, re-seeded every hour over an hourSource.
	flows []netsim.Flow
	round round
	order []int
	rng   *rand.Rand

	vms   []*cloud.VM // a slot is nil while its VM is preempted and not yet replaced
	specs []cloud.VMSpec
	// Each VM owns its SoMeta collector, so concurrently running VMs never
	// share a mutable instrument; the traceroute prober is stateless.
	collectors []*someta.Collector
	prober     *traceroute.Prober

	// Campaign progress metrics and the root of the span hierarchy (campaign
	// → phase/round → vm-hour → test). Both no-op entirely when the obs
	// registry/tracer are disabled, and nothing they record feeds back into
	// the measurement arithmetic — TestMetricsDoNotChangeResults pins that
	// campaigns are bit-identical either way.
	metrics   campaignMetrics
	span      obs.Span
	wallStart time.Time
}

// task is one scheduled speed test of an hourly round.
type task struct {
	spec    netsim.TestSpec
	flow    int // the spec's flow in campaign.flows
	capture bool
}

// round is one hour of a campaign: what plan scheduled and what execute
// made of it. A campaign has one, refilled every hour.
type round struct {
	hour  int
	start time.Time
	span  obs.Span // the executing round's, parent of its vm-hour spans
	// tasks is the hour's schedule, tier-major in slot order, so each VM's
	// 17 slots are contiguous (campaign.vmTasks).
	tasks     []task
	downloads int // the campaign's download counter after this round

	// executed is how many of the tasks ran: all of them, or none when an
	// open breaker shed the round.
	executed int
	// results and completed are indexed by task position, so commit observes
	// them in schedule order regardless of how the round interleaved;
	// completed marks the positions that produced a result (all of them in a
	// fault-free campaign, none in a shed round), and a result is meaningful
	// only where it is set — plan clears completed, not results.
	results   []netsim.TestResult
	completed []bool
	perVM     []Resilience // each VM goroutine's own tally
	tally     Resilience   // the round's, summed after the VMs join
	// traces is the daily follow-up traceroute batch by server position,
	// nil on every other hour.
	traces []traceroute.Result
}

// newCampaign validates the config, warms the routing caches, deploys the
// VMs and — when resuming — restores the checkpointed state, leaving the
// campaign ready for its first plan.
func (o *Orchestrator) newCampaign(cfg Config, log *analysis.RecordLog) (*campaign, error) {
	cfg = cfg.withDefaults()
	total := cfg.Days * 24
	topo := o.sim.Topology()
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("orchestrator: no servers to measure")
	}
	if log == nil {
		return nil, fmt.Errorf("orchestrator: nil record log")
	}
	if _, ok := topo.Region(cfg.Region); !ok {
		return nil, fmt.Errorf("orchestrator: unknown region %q", cfg.Region)
	}
	if res := cfg.Resume; res != nil && (res.NextHour < 0 || res.NextHour > total) {
		return nil, fmt.Errorf("orchestrator: resume watermark %d outside campaign of %d hours", res.NextHour, total)
	}
	c := &campaign{
		o: o, cfg: cfg, log: log, total: total,
		perTierVMs: PlanVMs(len(cfg.Servers)),
		inj:        faults.NewInjector(cfg.Faults, cfg.Seed),
		prober:     traceroute.NewProber(o.sim, cfg.Region, cfg.Seed),
		metrics:    newCampaignMetrics(cfg.Region),
		span:       obs.Trace("campaign").With("region", cfg.Region).WithInt("days", cfg.Days),
	}
	c.canBlock = c.inj != nil
	perHour := len(cfg.Servers) * TestsPerServerPerHour * len(cfg.Tiers)
	c.flows = make([]netsim.Flow, perHour)
	c.round = round{
		tasks:     make([]task, 0, perHour),
		results:   make([]netsim.TestResult, perHour),
		completed: make([]bool, perHour),
		perVM:     make([]Resilience, c.perTierVMs*len(cfg.Tiers)),
	}
	c.order = make([]int, len(cfg.Servers))
	for i := range c.order {
		c.order[i] = i // the order under FixedOrder; hourOrder overwrites it otherwise
	}
	c.rng = rand.New(newHourSource()) // hourOrder seeds it every hour
	// The platform injector is (re)installed unconditionally so a previous
	// campaign's cannot leak into this run.
	if c.inj != nil {
		c.pol = c.inj.Profile()
		c.breaker = faults.NewBreaker(c.pol.BreakerFailFrac, c.pol.BreakerMinSamples, c.pol.BreakerCooldown, &c.Breaker)
		o.platform.SetVMFaults(c.inj)
	} else {
		o.platform.SetVMFaults(nil)
	}

	// Precompute the routes every measurement will need — the tree toward
	// the cloud (download ingress) and the cloud's route to each server AS
	// (upload egress), the one full tree and the cone walks — so the first
	// hourly round starts with caches hot. Warming is a pure cache fill:
	// results are identical without it.
	warmDsts := []bgp.ASN{topo.Cloud.ASN}
	seen := map[bgp.ASN]bool{topo.Cloud.ASN: true}
	for _, srv := range cfg.Servers {
		if !seen[srv.ASN] {
			seen[srv.ASN] = true
			warmDsts = append(warmDsts, srv.ASN)
		}
	}
	phaseStart := time.Now()
	warmSpan := c.span.Child("warm").WithInt("destinations", len(warmDsts))
	o.sim.Router().Warm(warmDsts, cfg.Parallelism)
	warmSpan.End()
	c.metrics.phaseDone("warm", phaseStart)

	err := c.deploy()
	if err == nil && cfg.Resume != nil {
		err = c.restore(*cfg.Resume)
	}
	if err != nil {
		c.close()
		return nil, err
	}
	// Progress/ETA gauges for live introspection (-debug-addr). Driven by
	// the wall clock only; see setProgress for the no-feedback invariant.
	c.wallStart = time.Now()
	c.metrics.setProgress(c.NextHour, c.total, c.wallStart)
	return c, nil
}

// deploy creates the measurement VMs: enough for the hourly test load (two
// tests per server), per tier, spread across zones.
func (c *campaign) deploy() error {
	defer c.metrics.phaseDone("deploy", time.Now())
	cfg := &c.cfg
	totalVMs := c.perTierVMs * len(cfg.Tiers)
	defer c.span.Child("deploy").WithInt("vms", totalVMs).End()
	c.Report = Report{Region: cfg.Region, VMs: totalVMs}
	for _, tier := range cfg.Tiers {
		for i := 0; i < c.perTierVMs; i++ {
			vm, retries, err := c.createVM(cloud.VMSpec{
				Name:   fmt.Sprintf("clasp-%s-%s-%d", cfg.Region, tier, i),
				Region: cfg.Region,
				Type:   cloud.N1Standard2,
			}, cfg.Start)
			c.Report.VMCreateRetries += retries
			if err != nil {
				return fmt.Errorf("orchestrator: deploying VM %d/%s: %w", i, tier, err)
			}
			c.vms = append(c.vms, vm)
			// The provisioned spec has its zone resolved, so a preempted VM
			// is re-created in the same zone without consuming another
			// round-robin slot — keeping zone assignment deterministic.
			c.specs = append(c.specs, vm.VMSpec)
			c.collectors = append(c.collectors, someta.NewCollector(fmt.Sprintf("clasp-%s-%d", cfg.Region, len(c.collectors)), nil))
		}
	}
	return nil
}

// restore swaps in a checkpointed Progress — the only place one is read
// back. The deploy before it re-ran the original deploy bit-identically
// (fresh platform, pure FailVMCreate decisions), so its retry counters
// duplicate what the checkpointed report already carries: the state is
// restored wholesale, not merged, and the metrics start from it. The two
// values other owners hold go back to them: the platform gets its
// create-attempt residue, and VM slots that were dead at the checkpoint are
// re-emptied so their rounds keep dropping tests until the hour that
// deterministically re-creates them.
func (c *campaign) restore(p Progress) error {
	c.Progress = p
	c.VMCreateAttempts, c.DeadVMs = nil, nil
	c.metrics.published = c.Report
	c.o.platform.RestoreCreateAttempts(p.VMCreateAttempts)
	resumeAt := c.cfg.Start.Add(time.Duration(p.NextHour) * time.Hour)
	for _, i := range p.DeadVMs {
		if i < 0 || i >= len(c.vms) || c.vms[i] == nil {
			continue
		}
		if err := c.o.platform.DeleteVM(c.vms[i].Name, resumeAt); err != nil {
			return fmt.Errorf("orchestrator: resuming dead VM slot %d: %w", i, err)
		}
		c.vms[i] = nil
	}
	return nil
}

// checkpointState returns the Progress a checkpoint serialises — the only
// place one is assembled: the live state as it stands, plus the two values
// other owners hold.
func (c *campaign) checkpointState() Progress {
	p := c.Progress
	p.VMCreateAttempts = c.o.platform.CreateAttempts()
	for i, vm := range c.vms {
		if vm == nil {
			p.DeadVMs = append(p.DeadVMs, i)
		}
	}
	return p
}

// plan refills the campaign's round with hour NextHour's schedule: a pure
// function of (Config, NextHour, Downloads). Everything observable is
// derived from this deterministic order: VM assignment, slot timestamps
// (upload gets its own slot after the download), and the capture cadence,
// which counts downloads in task order so it selects the same tests at any
// parallelism.
func (c *campaign) plan() {
	cfg, r := &c.cfg, &c.round
	*r = round{
		hour:      c.NextHour,
		start:     cfg.Start.Add(time.Duration(c.NextHour) * time.Hour),
		tasks:     r.tasks[:0],
		downloads: c.Downloads,
		results:   r.results,
		completed: r.completed,
		perVM:     r.perVM,
	}
	clear(r.completed)
	clear(r.perVM)
	// Randomise the test order each hour to decorrelate from periodic
	// system events (§3.2).
	if !cfg.FixedOrder {
		hourOrder(c.rng, cfg.Seed, r.hour, c.order)
	}
	slotGap := time.Hour / time.Duration(TestsPerVMPerHour+1)
	for ti, tier := range cfg.Tiers {
		for pos, idx := range c.order {
			for di, dir := range [TestsPerServerPerHour]netsim.Direction{netsim.Download, netsim.Upload} {
				capture := false
				if dir == netsim.Download {
					r.downloads++
					capture = cfg.CaptureEvery > 0 && r.downloads%cfg.CaptureEvery == 0
				}
				slot := (pos*TestsPerServerPerHour + di) % TestsPerVMPerHour
				r.tasks = append(r.tasks, task{
					flow:    (ti*len(cfg.Servers)+idx)*TestsPerServerPerHour + di,
					capture: capture,
					spec: netsim.TestSpec{
						Region:      cfg.Region,
						Server:      cfg.Servers[idx],
						Tier:        tier,
						Dir:         dir,
						Time:        r.start.Add(time.Duration(slot) * slotGap),
						DurationSec: cfg.TestDurationSec,
					}})
			}
		}
	}
}

// vmTasks returns the half-open range of a round's tasks that VM vm (global
// index: tierIndex*perTierVMs + vmWithinTier) runs: the tests of its tier
// fill 17 hourly slots per VM in schedule order.
func (c *campaign) vmTasks(vm int) (lo, hi int) {
	perTier := len(c.cfg.Servers) * TestsPerServerPerHour
	base := vm / c.perTierVMs * perTier
	lo = vm % c.perTierVMs * TestsPerVMPerHour
	return base + lo, base + min(lo+TestsPerVMPerHour, perTier)
}

// execute runs the planned round and is the only place that decides how:
// shed under an open breaker, else inline or fanned out (fanOut). It touches
// no campaign state commit owns; its outcome is the round.
func (c *campaign) execute() error {
	r := &c.round
	if !c.breaker.Allow() {
		// Open breaker: drop the whole round with explicit accounting
		// instead of executing it. Committing it with zero executed tasks
		// advances the breaker's cooldown toward the probe round.
		r.tally = Resilience{Dropped: len(r.tasks), BreakerOpenRounds: 1}
		return nil
	}
	r.executed = len(r.tasks)
	phaseStart := time.Now()
	r.span = c.span.Child("round").WithInt("hour", r.hour).WithInt("tasks", len(r.tasks))
	err := c.fanOut(len(c.vms), (*campaign).runVM)
	r.span.End()
	c.metrics.phaseDone("measure", phaseStart)
	if err != nil {
		return err
	}
	for i := range r.perVM {
		r.tally.add(r.perVM[i])
	}
	if every := c.cfg.TracerouteEvery; every > 0 && r.hour%(24*every) == 0 {
		return c.traceroutes()
	}
	return nil
}

// fanOut runs unit(c, 0..n-1), a step of the current round. When nothing can
// block the whole batch is one unit of work under one pool slot, inline on
// the campaign's goroutine; otherwise one goroutine per index, at most
// Parallelism in flight, each holding a pool slot while it runs.
func (c *campaign) fanOut(n int, unit func(*campaign, int) error) error {
	if !c.canBlock {
		c.cfg.Workers.acquire()
		defer c.cfg.Workers.release()
		for i := 0; i < n; i++ {
			if err := unit(c, i); err != nil {
				return err
			}
		}
		return nil
	}
	return forEachLimit(n, c.cfg.Parallelism, c.cfg.Workers.Wrap(func(i int) error { return unit(c, i) }))
}

// forEachLimit runs fn(0..n-1), at most `limit` calls in flight; limit <= 1
// runs inline and stops at the first error; concurrent calls all finish and
// their errors are joined.
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
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// runVM executes one VM's hour of the round.
func (c *campaign) runVM(vm int) error {
	r := &c.round
	lo, hi := c.vmTasks(vm)
	tally := &r.perVM[vm]
	if c.inj != nil {
		// Survive this hour's preemption, then make sure the VM slot is
		// populated — a re-creation that failed in an earlier hour left
		// it nil. A VM-hour with no instance is degraded, not fatal:
		// its tests are dropped and the campaign continues (the paper
		// re-plans lost VM-hours rather than aborting, §3.2).
		name := c.specs[vm].Name
		if c.vms[vm] != nil && c.inj.PreemptVM(name, r.hour) {
			if err := c.o.platform.Preempt(name, r.start); err != nil {
				return fmt.Errorf("orchestrator: preempting VM %q: %w", name, err)
			}
			c.vms[vm] = nil
			tally.Preemptions++
		}
		if c.vms[vm] == nil {
			nvm, retries, err := c.createVM(c.specs[vm], r.start)
			tally.VMCreateRetries += retries
			if err != nil {
				tally.Dropped += hi - lo
				return nil
			}
			c.vms[vm] = nvm
		}
	}
	vmSpan := r.span.Child("vm-hour").WithInt("vm", vm).WithInt("tests", hi-lo)
	defer vmSpan.End()
	// One unconditional SoMeta snapshot per VM-hour, so the report's
	// MaxVMCPUUtil is populated even with captures disabled.
	c.collectors[vm].Snap(r.start)
	c.metrics.snapshots.Inc()
	traced := obs.TraceEnabled()
	for ti := lo; ti < hi; ti++ {
		t := &r.tasks[ti]
		var testSpan obs.Span
		if traced {
			testSpan = vmSpan.Child("test").WithInt("server", t.spec.Server.ID).
				With("tier", t.spec.Tier.String()).With("dir", t.spec.Dir.String())
		}
		err := c.runTest(t, ti, tally)
		testSpan.End()
		if err != nil {
			return err
		}
		if r.completed[ti] && t.capture {
			if err := c.captureTest(t.spec, r.results[ti], c.collectors[vm]); err != nil {
				return err
			}
		}
	}
	return nil
}

// createVM provisions one VM, retrying injected control-plane rejections on
// the profile's deterministic backoff schedule. It returns how many retries
// it spent (the failed attempts before the last one); real errors — and
// injected ones past the retry budget — surface to the caller.
func (c *campaign) createVM(spec cloud.VMSpec, at time.Time) (*cloud.VM, int, error) {
	for attempt := 0; ; attempt++ {
		vm, err := c.o.platform.CreateVM(spec, at)
		if err == nil {
			return vm, attempt, nil
		}
		fe, injected := faults.AsError(err)
		if c.inj == nil || !injected || !fe.Retryable() || attempt >= c.pol.MaxRetries {
			return nil, attempt, err
		}
		time.Sleep(c.inj.Backoff(attempt, faults.KeyString(spec.Name)))
	}
}

// runTest executes task t, the round's ti-th, under the profile's
// timeout/retry/backoff policy. Injected failures are tallied and — once
// non-retryable or out of budget — dropped, leaving completed[ti] false;
// real errors still abort the campaign exactly as they did before the fault
// layer. The attempt number is written into the task's own spec: the task is
// this VM's alone, and nothing downstream reads it.
func (c *campaign) runTest(t *task, ti int, tally *Resilience) error {
	r, spec := &c.round, &t.spec
	for attempt := 0; ; attempt++ {
		spec.Attempt = attempt
		res, err := c.attempt(t)
		if err == nil {
			r.results[ti], r.completed[ti] = res, true
			return nil
		}
		fe, injected := faults.AsError(err)
		if c.inj == nil || !injected {
			return fmt.Errorf("orchestrator: test %d/%s/%s: %w", spec.Server.ID, spec.Tier, spec.Dir, err)
		}
		tally.Failed++
		if !fe.Retryable() || attempt >= c.pol.MaxRetries {
			tally.Dropped++
			return nil
		}
		tally.Retried++
		time.Sleep(c.inj.Backoff(attempt,
			faults.KeyString(spec.Region), uint64(spec.Server.ID),
			uint64(spec.Tier), uint64(spec.Dir), uint64(r.hour)))
	}
}

// attempt is one execution of a test: under a fault profile, injection
// (bounded by the profile's timeout) and the measurement through MeasureCtx,
// so the netsim fault counters see every injection; otherwise — the campaign
// whose tests cannot block, running inline — the simulator through the
// campaign's own flow handle.
func (c *campaign) attempt(t *task) (netsim.TestResult, error) {
	if c.inj != nil {
		ctx, cancel := context.WithTimeout(context.Background(), c.pol.TestTimeout)
		defer cancel()
		return c.o.sim.MeasureCtx(ctx, t.spec, c.inj)
	}
	return c.o.sim.MeasureFlow(&c.flows[t.flow], &t.spec)
}

// traceroutes runs the daily follow-up batch: probing is pure, so it goes
// through the round's fan-out; uploads run in server order afterwards.
func (c *campaign) traceroutes() error {
	defer c.metrics.phaseDone("traceroute", time.Now())
	cfg, r := &c.cfg, &c.round
	span := c.span.Child("traceroute").WithInt("hour", r.hour).WithInt("servers", len(cfg.Servers))
	defer span.End()
	r.traces = make([]traceroute.Result, len(cfg.Servers))
	err := c.fanOut(len(cfg.Servers), (*campaign).traceServer)
	if err != nil || c.o.bucket == nil {
		return err
	}
	for i, srv := range cfg.Servers {
		var buf bytes.Buffer
		if err := traceroute.WriteJSON(&buf, r.traces[i:i+1]); err != nil {
			return err
		}
		key := fmt.Sprintf("%s/traceroute/%s/server-%d.json", cfg.Region, r.start.Format("2006-01-02"), srv.ID)
		if err := c.o.bucket.Put(key, buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// traceServer probes the round's follow-up traceroute to server i.
func (c *campaign) traceServer(i int) error {
	srv := c.cfg.Servers[i]
	tr, err := c.prober.Trace(traceroute.Destination{
		IP: srv.IP, ASN: srv.ASN, City: srv.City, LinkID: -1, Tier: c.cfg.Tiers[0],
	}, traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(srv.ID)})
	if err != nil {
		return fmt.Errorf("orchestrator: traceroute to %d: %w", srv.ID, err)
	}
	c.round.traces[i] = tr
	return nil
}

// commit folds an executed (or shed) round into the campaign state and is
// the only place that touches the log, the report, the breaker, the
// watermark, the checkpoint, the kill points and the progress hooks — from
// the campaign's goroutine, in task order, so the record stream matches the
// sequential schedule exactly at any parallelism.
func (c *campaign) commit() error {
	cfg, rep, r := &c.cfg, &c.Report, &c.round
	if r.executed > 0 {
		// Crash-test point: the round has executed but nothing is emitted
		// or checkpointed yet — a kill here loses the whole round, which
		// resume must re-execute from the last checkpoint's watermark.
		killpoint.Maybe("mid-round", r.hour)
	}
	rep.Hours++
	rep.add(r.tally)
	// Round-boundary breaker feed: order-independent counts only, so the
	// trip point is deterministic at any parallelism.
	c.breaker.ObserveRound(r.tally.Dropped, r.executed)

	// Emit. Dropped tests never reach the log — the paper discards failed
	// tests rather than recording partial measurements.
	phaseStart := time.Now()
	for i := range r.tasks {
		if !r.completed[i] {
			continue
		}
		spec, res := &r.tasks[i].spec, &r.results[i]
		c.log.Append(analysis.Measurement{
			ServerID: spec.Server.ID,
			Region:   spec.Region,
			Tier:     spec.Tier,
			Dir:      spec.Dir,
			Time:     spec.Time,
			Mbps:     res.ThroughputMbps,
			RTTms:    res.RTTms,
			Loss:     res.LossRate,
		})
		rep.Tests++
		rep.EgressBytes[spec.Tier] += testEgressBytes(spec, res.ThroughputMbps)
		if r.tasks[i].capture {
			rep.Captures++
		}
	}
	c.metrics.phaseDone("emit", phaseStart)
	rep.Traceroutes += len(r.traces)
	// Folded every round, not after the last: a checkpoint carries the peak
	// so far and a resumed run reports the whole campaign's.
	for _, col := range c.collectors {
		rep.MaxVMCPUUtil = max(rep.MaxVMCPUUtil, col.MaxCPU())
	}
	c.Downloads = r.downloads
	c.NextHour++

	// Checkpoint cadence, derived from the watermark alone — shed rounds
	// count (an open breaker is exactly the cross-round state a crash must
	// not lose), and the last hour always commits so a finished campaign is
	// recognisable as finished.
	every := max(cfg.CheckpointEvery, 1)
	if cfg.OnCheckpoint != nil && (c.NextHour%every == 0 || c.NextHour == c.total) {
		if err := cfg.OnCheckpoint(c.checkpointState()); err != nil {
			return fmt.Errorf("orchestrator: checkpoint after hour %d: %w", r.hour, err)
		}
		killpoint.Maybe("round-boundary", r.hour)
	}
	c.metrics.publish(len(r.tasks), rep, c.breaker.State())
	c.metrics.setProgress(c.NextHour, c.total, c.wallStart)
	if cfg.OnRound != nil {
		cfg.OnRound(c.NextHour, c.total)
	}
	return nil
}

// finish closes the books of a campaign that ran to its last hour.
func (c *campaign) finish() *Report {
	for tier, n := range c.Report.EgressBytes {
		c.o.platform.RecordEgress(bgp.Tier(tier), n)
	}
	c.o.platform.AccrueVMHours(len(c.vms), time.Duration(c.total)*time.Hour, cloud.N1Standard2)
	return &c.Report
}

// close tears the deployment down, on the error paths too.
func (c *campaign) close() {
	end := c.cfg.Start.Add(time.Duration(c.total) * time.Hour)
	for _, vm := range c.vms {
		if vm != nil {
			_ = c.o.platform.DeleteVM(vm.Name, end)
		}
	}
	c.span.End()
}

// captureTest synthesises a tcpdump-style header capture consistent with
// the measured flow, snapshots SoMeta metadata, compresses both, and
// uploads them to the results bucket.
func (c *campaign) captureTest(spec netsim.TestSpec, res netsim.TestResult, collector *someta.Collector) error {
	srv, at := spec.Server, spec.Time
	collector.Snap(at)
	c.metrics.snapshots.Inc()
	if c.o.bucket == nil {
		return nil
	}
	var raw bytes.Buffer
	err := flowstats.Synthesize(&raw, flowstats.SynthConfig{
		Client:      c.o.sim.VMAddr(spec.Region),
		Server:      srv.IP,
		ClientPort:  uint16(40000 + srv.ID%20000),
		Start:       at,
		RTTms:       res.RTTms,
		Loss:        res.LossRate,
		RateMbps:    res.ThroughputMbps,
		DurationSec: min(spec.DurationSec, 5), // header capture of the first seconds
		Seed:        c.cfg.Seed ^ int64(srv.ID),
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
	key := fmt.Sprintf("%s/pcap/%s/server-%d-%s.pcap.gz", spec.Region, at.Format("2006-01-02"), srv.ID, spec.Tier)
	if err := c.o.bucket.Put(key, gz.Bytes()); err != nil {
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
	metaKey := fmt.Sprintf("%s/someta/%s/server-%d-%s.json", spec.Region, at.Format("2006-01-02"), srv.ID, spec.Tier)
	return c.o.bucket.Put(metaKey, meta.Bytes())
}
