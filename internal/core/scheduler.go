package core

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/killpoint"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// CampaignRef names one campaign of a multi-campaign command before any
// selection has run: enough to derive its checkpoint identity, and
// therefore enough to write the command manifest up front.
type CampaignRef struct {
	Kind       string // "topology" or "differential"
	Region     string
	Days       int
	MinSamples int // differential only
}

// PlannedCampaign is a campaign after its planning phase: selection done,
// checkpoint state attached. RunPlanned executes the measurement, which is
// safe to run concurrently with other planned campaigns.
type PlannedCampaign struct {
	Camp    checkpoint.Campaign
	Servers []*topology.Server
	Tiers   []bgp.Tier
	// TopoSel / DiffSel hold the selection the campaign was planned from
	// (one of the two, by Kind).
	TopoSel *selection.TopoResult
	DiffSel []selection.DiffSelected

	// ck is a checkpoint found for this campaign when planning a resume.
	// At its final watermark (Days*24) RunPlanned has zero rounds left to
	// execute and the scheduler reports the campaign through OnSkip.
	ck *checkpoint.Checkpoint
}

// PlanTopologyCampaign runs the topology selection for a region and
// returns the campaign ready to execute.
func (c *CLASP) PlanTopologyCampaign(region string, days int) (*PlannedCampaign, error) {
	sel, err := c.SelectTopologyServers(region)
	if err != nil {
		return nil, fmt.Errorf("core: topology selection in %s: %w", region, err)
	}
	servers := make([]*topology.Server, 0, len(sel.Selected))
	for _, s := range sel.Selected {
		servers = append(servers, s.Server)
	}
	return &PlannedCampaign{
		Camp:    c.campaignIdentity("topology", region, days, 0),
		Servers: servers,
		Tiers:   []bgp.Tier{bgp.Premium},
		TopoSel: sel,
	}, nil
}

// PlanDifferentialCampaign runs the differential selection for a region
// and returns the two-tier campaign ready to execute.
func (c *CLASP) PlanDifferentialCampaign(region string, days, minSamples int) (*PlannedCampaign, error) {
	sel, _, err := c.SelectDifferentialServers(region, minSamples)
	if err != nil {
		return nil, fmt.Errorf("core: differential selection in %s: %w", region, err)
	}
	if len(sel) == 0 {
		return nil, fmt.Errorf("core: differential selection in %s found no servers", region)
	}
	servers := make([]*topology.Server, 0, len(sel))
	for _, s := range sel {
		servers = append(servers, s.Server)
	}
	return &PlannedCampaign{
		Camp:    c.campaignIdentity("differential", region, days, minSamples),
		Servers: servers,
		Tiers:   []bgp.Tier{bgp.Premium, bgp.Standard},
		DiffSel: sel,
	}, nil
}

// PlanRef plans a campaign from its reference.
func (c *CLASP) PlanRef(ref CampaignRef) (*PlannedCampaign, error) {
	switch ref.Kind {
	case "topology":
		return c.PlanTopologyCampaign(ref.Region, ref.Days)
	case "differential":
		return c.PlanDifferentialCampaign(ref.Region, ref.Days, ref.MinSamples)
	default:
		return nil, fmt.Errorf("core: unknown campaign kind %q", ref.Kind)
	}
}

// RunPlanned executes a planned campaign: a fresh run, a resume from a
// partial checkpoint, or — for a checkpoint already at its final watermark
// — a replay-only pass that re-measures nothing. The finished case needs
// no special path: the watermark leaves zero rounds to execute, so the
// run replays the recorded stream through the live sink fan-out and
// re-runs only the deterministic deploy/teardown, which re-accrues every
// compute and egress cost component exactly as the original run did.
// Safe to call concurrently for different planned campaigns; the engine's
// worker pool bounds their combined VM concurrency.
func (c *CLASP) RunPlanned(p *PlannedCampaign) (*CampaignResult, error) {
	return c.runCampaign(p.Camp, p.Servers, p.Tiers, p.ck)
}

// commandMetrics aggregates progress across the concurrently running
// campaigns of one command, published under the command label so /progress
// can report whole-command position and ETA next to the per-region series.
type commandMetrics struct {
	campaignsTotal *obs.Gauge
	campaignsDone  *obs.Gauge
	hoursTotal     *obs.Gauge
	hoursDone      *obs.Gauge
	eta            *obs.Gauge
}

func newCommandMetrics(name string) *commandMetrics {
	r := obs.Default()
	return &commandMetrics{
		campaignsTotal: r.Gauge("command_campaigns_total", "command", name),
		campaignsDone:  r.Gauge("command_campaigns_done", "command", name),
		hoursTotal:     r.Gauge("command_hours_total", "command", name),
		hoursDone:      r.Gauge("command_hours_done", "command", name),
		eta:            r.Gauge("command_eta_seconds", "command", name),
	}
}

// CommandScheduler coordinates the campaigns of one multi-campaign command
// (report all, costs): it owns the planning phase (callers plan in ref
// order, so skip lines and progress registration are deterministic;
// checkpoints attach on resume), accounts whole-command progress across
// the concurrent campaign runs, writes the command manifest, and arms the
// campaign-done kill point the resume kill-matrix uses. One scheduler per
// engine at a time.
type CommandScheduler struct {
	eng    *CLASP
	resume bool

	// OnSkip, when set, is called from the planning phase for each
	// campaign whose checkpoint is already at its final watermark — the
	// CLI prints these so a resume shows what it skipped.
	OnSkip func(checkpoint.Campaign)

	mu            sync.Mutex
	wallStart     time.Time
	hoursTotal    int
	hoursDone     int
	campaignsDone int
	campaigns     int
	m             *commandMetrics
}

// NewCommandScheduler attaches a scheduler for a fresh command run. name
// labels the command's progress series (e.g. "report-all", "costs").
func (c *CLASP) NewCommandScheduler(name string) *CommandScheduler {
	s := &CommandScheduler{eng: c, wallStart: time.Now(), m: newCommandMetrics(name)}
	c.sched = s
	return s
}

// NewResumeScheduler attaches a scheduler that re-enters a killed command:
// Plan consults each campaign's checkpoint under Opts.CheckpointDir —
// finished campaigns load without re-measuring, partial ones resume from
// their watermark, never-started ones run fresh.
func (c *CLASP) NewResumeScheduler(name string) *CommandScheduler {
	s := c.NewCommandScheduler(name)
	s.resume = true
	return s
}

// WriteManifest commits the command manifest — the command identity, its
// shape flags and the full planned campaign set — into the engine's
// checkpoint directory. shape is the command's days and then its
// differential-scan threshold (minSamples), recorded as given: a resume
// renders with exactly these, and the refs cannot stand in for them (an
// artifact may select differential servers without running a differential
// campaign). No-op when checkpointing is off, the one case a caller may
// leave shape out. Called before any campaign starts, so a kill at any
// later point leaves a resumable manifest.
func (s *CommandScheduler) WriteManifest(command, artifact string, refs []CampaignRef, shape ...int) error {
	dir := s.eng.Opts.CheckpointDir
	if dir == "" {
		return nil
	}
	if len(shape) != 2 {
		return fmt.Errorf("core: manifest of %s needs the command's days and minSamples", command)
	}
	man := checkpoint.Manifest{Command: command, Artifact: artifact, Days: shape[0], MinSamples: shape[1], Identity: s.eng.Opts.Identity()}
	for _, ref := range refs {
		man.Campaigns = append(man.Campaigns, s.eng.campaignIdentity(ref.Kind, ref.Region, ref.Days, ref.MinSamples))
	}
	return checkpoint.WriteManifest(dir, man)
}

// Plan runs a campaign's planning phase: selection (memoized), progress
// registration, and — on resume — checkpoint attachment.
func (s *CommandScheduler) Plan(ref CampaignRef) (*PlannedCampaign, error) {
	p, err := s.eng.PlanRef(ref)
	if err != nil {
		return nil, err
	}
	done := 0
	if s.resume && s.eng.Opts.CheckpointDir != "" {
		ck, err := checkpoint.LoadCampaign(s.eng.Opts.CheckpointDir, p.Camp)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		if ck != nil {
			if err := s.eng.checkCampaignIdentity(ck.Meta.Campaign.Identity); err != nil {
				return nil, err
			}
			p.ck = ck
			done = ck.Meta.Progress.NextHour
			if done >= ref.Days*24 && s.OnSkip != nil {
				s.OnSkip(p.Camp)
			}
		}
	}
	s.mu.Lock()
	s.campaigns++
	s.hoursTotal += ref.Days * 24
	s.hoursDone += done
	s.publishLocked()
	s.mu.Unlock()
	return p, nil
}

// Run executes a planned campaign under the scheduler's accounting and,
// once the campaign completes, arms the campaign-done kill point with the
// command-wide completion count (1-based, in completion order).
func (s *CommandScheduler) Run(p *PlannedCampaign) (*CampaignResult, error) {
	res, err := s.eng.RunPlanned(p)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.campaignsDone++
	n := s.campaignsDone
	s.publishLocked()
	s.mu.Unlock()
	killpoint.Maybe("campaign-done", n)
	return res, nil
}

// roundDone is the orchestrator's per-round callback: one more hour of the
// command's total is complete.
func (s *CommandScheduler) roundDone(done, total int) {
	s.mu.Lock()
	s.hoursDone++
	s.publishLocked()
	s.mu.Unlock()
}

func (s *CommandScheduler) publishLocked() {
	s.m.campaignsTotal.Set(float64(s.campaigns))
	s.m.campaignsDone.Set(float64(s.campaignsDone))
	s.m.hoursTotal.Set(float64(s.hoursTotal))
	s.m.hoursDone.Set(float64(s.hoursDone))
	if s.hoursDone <= 0 || s.hoursDone >= s.hoursTotal {
		s.m.eta.Set(0)
		return
	}
	elapsed := time.Since(s.wallStart).Seconds()
	s.m.eta.Set(elapsed / float64(s.hoursDone) * float64(s.hoursTotal-s.hoursDone))
}

// checkCampaignIdentity verifies a loaded checkpoint belongs to this
// engine's configuration: every identity field must match, or the resumed
// run would not reproduce the uninterrupted one. The recorded identity is
// put through the same conversion as the engine's, so spellings compare
// equal.
func (c *CLASP) checkCampaignIdentity(id checkpoint.Identity) error {
	want, got := c.Opts.Identity(), ResumeOptions(id).Identity()
	w, g := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < w.NumField(); i++ {
		if w.Field(i).Interface() != g.Field(i).Interface() {
			return fmt.Errorf("core: engine %s %v does not match checkpoint %[1]s %[3]v",
				w.Type().Field(i).Name, w.Field(i).Interface(), g.Field(i).Interface())
		}
	}
	return nil
}
