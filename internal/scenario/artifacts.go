package scenario

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/selection"

	clasp "github.com/clasp-measurement/clasp"
)

// artifactOrder is every paper artifact, in the order "all" renders them.
var artifactOrder = []string{
	"table1", "fig2", "fig3", "fig4a", "fig4b", "fig4c",
	"fig5", "fig6a", "fig6b", "fig6c", "fig7", "fig8", "headlines",
}

// Artifacts returns the renderable artifact names ("all" last).
func Artifacts() []string {
	out := make([]string, 0, len(artifactOrder)+1)
	out = append(out, artifactOrder...)
	return append(out, "all")
}

// knownArtifacts is the Artifacts list as a set.
func knownArtifacts() map[string]bool {
	set := make(map[string]bool)
	for _, a := range Artifacts() {
		set[a] = true
	}
	return set
}

// campaignKey identifies one campaign an artifact depends on. Days and
// minSamples are part of the key, so a scenario measuring the same region
// at two different lengths gets two distinct campaigns.
type campaignKey struct {
	kind       string
	region     string
	days       int
	minSamples int
}

func (k campaignKey) ref() core.CampaignRef {
	return core.CampaignRef{Kind: k.kind, Region: k.region, Days: k.days, MinSamples: k.minSamples}
}

// campaignEntry is the cache cell for one campaign: planning and running
// each happen exactly once (two-stage singleflight), and every concurrent
// requester blocks on the same execution instead of launching its own.
type campaignEntry struct {
	planOnce sync.Once
	plan     *core.PlannedCampaign
	planErr  error
	runOnce  sync.Once
	res      *core.CampaignResult
	runErr   error
}

// ArtifactCache shares campaign results across the artifacts of one run so
// each region is measured exactly once (the `report all` economics: ten of
// the thirteen artifacts reuse the same six topology campaigns). It is
// safe for concurrent use: overlapping renderers requesting the same
// campaign coalesce onto a single execution.
type ArtifactCache struct {
	mu      sync.Mutex
	entries map[campaignKey]*campaignEntry
	sched   *core.CommandScheduler
	fills   atomic.Int64 // campaigns executed; the coalescing test reads it
}

// NewArtifactCache returns an empty cache.
func NewArtifactCache() *ArtifactCache {
	return &ArtifactCache{entries: make(map[campaignKey]*campaignEntry)}
}

// UseScheduler gives the cache the command scheduler that plans and runs
// its campaigns: it accounts whole-command progress and, on resume, skips
// campaigns whose checkpoints are already complete. A cache asked for a
// campaign before it has one returns an error; one that renders only
// selection artifacts (table1) needs none.
func (c *ArtifactCache) UseScheduler(s *core.CommandScheduler) { c.sched = s }

func (c *ArtifactCache) entry(k campaignKey) *campaignEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		e = &campaignEntry{}
		c.entries[k] = e
	}
	return e
}

// planEntry runs the campaign's planning phase (selection, checkpoint
// attachment) at most once, through the scheduler.
func (c *ArtifactCache) planEntry(k campaignKey) *campaignEntry {
	e := c.entry(k)
	e.planOnce.Do(func() {
		if c.sched == nil {
			e.planErr = fmt.Errorf("scenario: %s campaign in %s requested from an artifact cache with no command scheduler", k.kind, k.region)
			return
		}
		e.plan, e.planErr = c.sched.Plan(k.ref())
	})
	return e
}

// runEntry executes the campaign at most once; concurrent callers block
// until the single execution finishes.
func (c *ArtifactCache) runEntry(k campaignKey) *campaignEntry {
	e := c.planEntry(k)
	e.runOnce.Do(func() {
		if e.planErr != nil {
			e.runErr = e.planErr
			return
		}
		c.fills.Add(1)
		e.res, e.runErr = c.sched.Run(e.plan)
	})
	return e
}

func (c *ArtifactCache) topology(region string, days int) (*core.CampaignResult, *selection.TopoResult, error) {
	e := c.runEntry(campaignKey{kind: "topology", region: region, days: days})
	if e.runErr != nil {
		return nil, nil, e.runErr
	}
	return e.res, e.plan.TopoSel, nil
}

func (c *ArtifactCache) differential(region string, days, minSamples int) (*core.CampaignResult, []selection.DiffSelected, error) {
	e := c.runEntry(campaignKey{kind: "differential", region: region, days: days, minSamples: minSamples})
	if e.runErr != nil {
		return nil, nil, e.runErr
	}
	return e.res, e.plan.DiffSel, nil
}

// artifactCampaigns returns the campaigns one artifact renders from, in
// the order its renderer requests them. Selection-only artifacts (table1)
// return nothing; fig7 keeps its historical campaign dependency so its
// standalone cost accounting is unchanged.
func artifactCampaigns(artifact string, days, minSamples int) []campaignKey {
	topo := func(regions ...string) []campaignKey {
		out := make([]campaignKey, len(regions))
		for i, r := range regions {
			out[i] = campaignKey{kind: "topology", region: r, days: days}
		}
		return out
	}
	diff := func(regions ...string) []campaignKey {
		out := make([]campaignKey, len(regions))
		for i, r := range regions {
			out[i] = campaignKey{kind: "differential", region: r, days: days, minSamples: minSamples}
		}
		return out
	}
	switch artifact {
	case "fig2":
		return topo(core.TopologyRegions...)
	case "fig3", "fig6b":
		return topo("us-west1")
	case "fig4a", "fig7", "fig8":
		return topo(core.Table1Regions...)
	case "fig4b", "fig4c":
		return diff(core.DifferentialRegions...)
	case "fig5", "fig6c":
		return diff("europe-west1")
	case "fig6a":
		return topo("us-east1")
	case "headlines":
		return append(topo(core.TopologyRegions...), diff("europe-west1")...)
	}
	return nil
}

// CampaignRefs returns the deduplicated campaign set an artifact list
// depends on, in first-request order — the campaign plan a command
// manifest records and Prelaunch executes.
func CampaignRefs(artifacts []string, days, minSamples int) []core.CampaignRef {
	var refs []core.CampaignRef
	seen := make(map[campaignKey]bool)
	for _, a := range artifacts {
		names := []string{a}
		if a == "all" {
			names = artifactOrder
		}
		for _, name := range names {
			for _, k := range artifactCampaigns(name, days, minSamples) {
				if seen[k] {
					continue
				}
				seen[k] = true
				refs = append(refs, k.ref())
			}
		}
	}
	return refs
}

// Prelaunch plans every campaign the artifact set needs in ref order — so
// skip lines and progress registration keep their order — and launches
// each one's execution in the background as soon as it is planned, so a
// campaign measures while the next one's servers are still being selected.
// Renderers then block only on the campaigns they consume, so analysis and
// rendering overlap measurement too; the engine's shared worker pool bounds
// how much measurement actually runs at once. A planning error returns
// immediately, leaving the campaigns planned before it running in the
// background; execution errors surface when a renderer requests the failed
// campaign.
func (c *ArtifactCache) Prelaunch(artifacts []string, days, minSamples int) error {
	for _, ref := range CampaignRefs(artifacts, days, minSamples) {
		k := campaignKey{kind: ref.Kind, region: ref.Region, days: ref.Days, minSamples: ref.MinSamples}
		if e := c.planEntry(k); e.planErr != nil {
			return e.planErr
		}
		go c.runEntry(k)
	}
	return nil
}

// renderAll renders every artifact of "all" concurrently, each into its
// own buffer, and streams the buffers to out in the pinned artifact order.
// Campaigns are prelaunched up front, so an artifact renders as soon as
// its input campaigns complete — while later campaigns still measure —
// and the concatenated output is byte-identical to the sequential loop.
func renderAll(out io.Writer, p *clasp.Platform, cache *ArtifactCache, days, minSamples int) error {
	if err := cache.Prelaunch(artifactOrder, days, minSamples); err != nil {
		return err
	}
	type slot struct {
		buf  bytes.Buffer
		err  error
		done chan struct{}
	}
	slots := make([]*slot, len(artifactOrder))
	for i := range artifactOrder {
		s := &slot{done: make(chan struct{})}
		slots[i] = s
		go func(a string, s *slot) {
			defer close(s.done)
			core.Separator(&s.buf, a)
			if err := RenderArtifact(&s.buf, p, cache, a, days, minSamples); err != nil {
				s.err = fmt.Errorf("%s: %w", a, err)
			}
		}(artifactOrder[i], s)
	}
	for _, s := range slots {
		<-s.done
		if s.err != nil {
			return s.err
		}
		if _, err := out.Write(s.buf.Bytes()); err != nil {
			return err
		}
	}
	return nil
}

// RenderArtifact regenerates one (or all) paper artifacts. It is the single
// artifact renderer: `clasp report` and scenario runs both call it, which
// is what makes a scenario's artifact section byte-identical to the CLI.
func RenderArtifact(out io.Writer, p *clasp.Platform, cache *ArtifactCache, artifact string, days, minSamples int) error {
	eng := p.Engine()

	topoCampaigns := func(regions []string) (map[string]*core.CampaignResult, error) {
		results := make(map[string]*core.CampaignResult)
		for _, r := range regions {
			res, _, err := cache.topology(r, days)
			if err != nil {
				return nil, err
			}
			results[r] = res
		}
		return results, nil
	}

	switch artifact {
	case "table1":
		rows, err := eng.Table1(core.Table1Regions)
		if err != nil {
			return err
		}
		core.WriteTable1(out, rows)

	case "fig2":
		results, err := topoCampaigns(core.TopologyRegions)
		if err != nil {
			return err
		}
		core.WriteFig2(out, core.Fig2(results, nil, eng.Opts.Parallelism))

	case "fig3":
		res, _, err := cache.topology("us-west1", days)
		if err != nil {
			return err
		}
		d, err := eng.Fig3(res)
		if err != nil {
			return err
		}
		core.WriteFig3(out, d)

	case "fig4a":
		results, err := topoCampaigns(core.Table1Regions)
		if err != nil {
			return err
		}
		for _, r := range core.Table1Regions {
			d, err := core.Fig4(results[r], bgp.Premium)
			if err != nil {
				return err
			}
			core.WriteFig4(out, d)
		}

	case "fig4b", "fig4c":
		tier := bgp.Premium
		if artifact == "fig4c" {
			tier = bgp.Standard
		}
		for _, r := range core.DifferentialRegions {
			res, _, err := cache.differential(r, days, minSamples)
			if err != nil {
				return err
			}
			d, err := core.Fig4(res, tier)
			if err != nil {
				return err
			}
			core.WriteFig4(out, d)
		}

	case "fig5":
		res, sel, err := cache.differential("europe-west1", days, minSamples)
		if err != nil {
			return err
		}
		s, err := core.Fig5(res, sel)
		if err != nil {
			return err
		}
		core.WriteFig5(out, s)

	case "fig6a", "fig6b":
		region := "us-east1"
		if artifact == "fig6b" {
			region = "us-west1"
		}
		res, _, err := cache.topology(region, days)
		if err != nil {
			return err
		}
		core.WriteFig6(out, region, eng.Fig6(res, bgp.Premium, 10))

	case "fig6c":
		res, _, err := cache.differential("europe-west1", days, minSamples)
		if err != nil {
			return err
		}
		core.WriteFig6(out, "europe-west1 premium", eng.Fig6(res, bgp.Premium, 6))
		core.WriteFig6(out, "europe-west1 standard", eng.Fig6(res, bgp.Standard, 6))

	case "fig7":
		for _, region := range core.Table1Regions {
			_, sel, err := cache.topology(region, days)
			if err != nil {
				return err
			}
			core.WriteFig7(out, eng.Fig7(region, sel, nil))
		}
		diff, _, err := eng.SelectDifferentialServers("europe-west1", minSamples)
		if err != nil {
			return err
		}
		core.WriteFig7(out, eng.Fig7("europe-west1", nil, diff))

	case "fig8":
		results, err := topoCampaigns(core.Table1Regions)
		if err != nil {
			return err
		}
		for _, r := range core.Table1Regions {
			core.WriteFig8(out, r, eng.Fig8(results[r], bgp.Premium))
		}

	case "headlines":
		results, err := topoCampaigns(core.TopologyRegions)
		if err != nil {
			return err
		}
		diff, _, err := cache.differential("europe-west1", days, minSamples)
		if err != nil {
			return err
		}
		core.WriteHeadlines(out, eng.ComputeHeadlines(results, diff))

	case "all":
		return renderAll(out, p, cache, days, minSamples)

	default:
		return fmt.Errorf("unknown artifact %q", artifact)
	}
	return nil
}
