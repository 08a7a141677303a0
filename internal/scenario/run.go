package scenario

import (
	"fmt"
	"io"
	"sync"

	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/topology"

	clasp "github.com/clasp-measurement/clasp"
)

// Runner executes scenarios. It caches warmed substrates (topology + BGP
// router) per (seed, scale), so a fleet of scenarios sharing generation
// parameters builds the expensive immutable state once; everything stateful
// stays per-scenario, which keeps every run byte-identical to running the
// same scenario alone.
type Runner struct {
	mu   sync.Mutex
	subs map[string]*subEntry
}

type subEntry struct {
	once sync.Once
	sub  *core.Substrate
	err  error
}

// NewRunner returns a Runner with an empty substrate cache.
func NewRunner() *Runner {
	return &Runner{subs: make(map[string]*subEntry)}
}

// substrate returns the shared substrate for (seed, scale), building it at
// most once even under concurrent fleet callers. The config is derived
// exactly like core.New derives it from Options{Seed, Scale}, so injecting
// the substrate passes core.New's config-match check.
func (r *Runner) substrate(seed int64, scale float64) (*core.Substrate, error) {
	key := fmt.Sprintf("%d/%g", seed, scale)
	r.mu.Lock()
	e, ok := r.subs[key]
	if !ok {
		e = &subEntry{}
		r.subs[key] = e
	}
	r.mu.Unlock()
	e.once.Do(func() {
		cfg := topology.PaperScaleConfig()
		cfg.Scale = scale
		cfg.Seed = seed
		e.sub, e.err = core.NewSubstrate(cfg)
	})
	return e.sub, e.err
}

// Run executes one scenario, writing its report to w. The output is a pure
// function of the spec: same spec, same bytes, at any parallelism and
// whether the run is alone or part of a fleet.
func (r *Runner) Run(w io.Writer, s *Spec) error {
	if err := s.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	o := s.options()
	sub, err := r.substrate(o.Seed, o.Scale)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	o.Substrate = sub
	eng, err := core.New(o)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	p := clasp.NewFromCore(eng)
	cache := NewArtifactCache()
	// Labelled with the scenario's name: fleet members share one obs
	// registry, so each command's progress series must be its own.
	cache.UseScheduler(eng.NewCommandScheduler(s.Name))

	for i := range s.Campaigns {
		if err := r.runCampaign(w, s, &s.Campaigns[i], p, cache); err != nil {
			return fmt.Errorf("scenario %s: campaigns[%d]: %w", s.Name, i, err)
		}
	}
	for _, a := range s.Artifacts {
		// "all" emits its own per-artifact separators — rendering it bare is
		// what keeps paper-repro byte-identical to `clasp report all`.
		if a != "all" {
			core.Separator(w, a)
		}
		if err := RenderArtifact(w, p, cache, a, s.days(), s.minSamples()); err != nil {
			return fmt.Errorf("scenario %s: artifact %s: %w", s.Name, a, err)
		}
	}
	return nil
}

// runCampaign runs one campaign of a scenario across its regions.
func (r *Runner) runCampaign(w io.Writer, s *Spec, c *CampaignSpec, p *clasp.Platform, cache *ArtifactCache) error {
	days := c.Days
	if days == 0 {
		days = s.days()
	}
	for _, region := range c.Regions {
		core.Separator(w, c.Kind+" "+region)
		var res *core.CampaignResult
		var err error
		// The cache keys on (kind, region, days, samples), so a campaign
		// matching an artifact's shape shares its result and an overridden
		// length gets its own entry.
		switch c.Kind {
		case KindTopology:
			res, _, err = cache.topology(region, days)
		case KindDifferential:
			res, _, err = cache.differential(region, days, s.minSamples())
		}
		if err != nil {
			return err
		}
		clasp.WriteCampaignSummary(w, res)
		if c.renderCongestion() {
			rep, err := p.CongestionReport(res)
			if err != nil {
				return err
			}
			clasp.WriteReport(w, rep)
		}
		if c.renderTiers() {
			tc, err := p.CompareTiers(res)
			if err != nil {
				return err
			}
			clasp.WriteTierComparison(w, tc)
		}
	}
	return nil
}
