package core

import (
	"errors"
	"fmt"
	"strings"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/faults"
)

// Options is the one declaration of everything that configures a run. The
// public API (clasp.Options is this type), the CLI flags and the scenario
// spec (which embeds it; the JSON tags are the spec keys) all fill in this
// struct, and New is the one place it is defaulted and validated.
//
// The fields split three ways (see DESIGN.md "Configuration"): the ones
// that decide output bytes, plus the checkpoint cadence, form a run's
// checkpoint.Identity and may not change across a resume; Parallelism,
// MaxMemoryMB, SpillDir and CheckpointDir are runtime knobs that may;
// Substrate injects pre-built state and is reachable from Go only.
type Options struct {
	// Seed drives all topology generation and simulation randomness; equal
	// seeds give bit-identical campaigns. 0 means 1.
	Seed int64 `json:"seed,omitempty"`
	// Scale sizes the synthetic Internet relative to the paper's
	// measurement scale (1.0 ~ 6k interdomain links per region and ~1.3k US
	// test servers; tests use ~0.1). 0 means 0.25. A scenario spec sets it
	// under topology.scale.
	Scale float64 `json:"-"`
	// Parallelism bounds the concurrent VM workers across the engine's
	// campaigns (see orchestrator.Config.Parallelism), the workers of one
	// server selection and the analysis workers per report. 0 or 1 runs
	// sequentially; results are identical at any value — the engine's
	// determinism guarantee.
	Parallelism int `json:"parallelism,omitempty"`
	// FaultProfile names the canned fault-injection profile every campaign
	// runs under (see faults.Names). "" and "none" disable injection and
	// keep campaigns bit-identical to a fault-free engine. Active profiles
	// inject deterministic VM and measurement failures; the orchestrator
	// retries, degrades and accounts for them (the Report's resilience
	// counters), and two runs with the same Seed fail in exactly the same
	// places. All campaigns of one instance share the profile, so the
	// platform-level injector is consistent.
	FaultProfile string `json:"faultProfile,omitempty"`
	// CaptureEvery uploads a packet capture plus SoMeta records for every
	// Nth download test of each campaign (0 disables; captures are the
	// heaviest artifact). Captures never feed back into measurements, but
	// they are counted in the Report and billed as storage.
	CaptureEvery int `json:"captureEvery,omitempty"`
	// TracerouteEvery runs follow-up traceroutes per server every N
	// campaign days (0 disables).
	TracerouteEvery int `json:"tracerouteEvery,omitempty"`
	// MaxMemoryMB is a memory budget for campaign records and the analysis
	// views grouped from them (0 = none). Every campaign appends its
	// records to one compressed columnar log (analysis.RecordLog), and the
	// budget decides two things, each against half of it. A campaign whose
	// records, uncompressed, would exceed that half spills its finished
	// log's blocks to disk. And the per-pair views the analyses group from
	// a log (CampaignResult.SeriesAndPartitions) are kept and shared only
	// while all the engine's results together hold no more than that half;
	// a view that does not fit is grouped again for each caller. The budget
	// bounds nothing else: an analysis still allocates what it stages.
	// Every report is byte-identical at any budget.
	MaxMemoryMB int `json:"maxMemoryMB,omitempty"`
	// SpillDir is where over-budget campaigns place their spilled record
	// logs ("" = the system temp dir). Spill files are unlinked at
	// creation, so they vanish when the process exits no matter how.
	SpillDir string `json:"spillDir,omitempty"`
	// CheckpointDir enables campaign checkpointing: each campaign
	// periodically commits its progress and record stream into
	// <CheckpointDir>/<region>-<kind>/ by atomic rename, and a killed
	// command can be continued from its manifest (CLI: clasp resume; Go: a
	// NewResumeScheduler's Plan and Run) to produce output byte-identical to
	// a never-killed run. "" disables. A scenario has no resume, so a spec
	// has no key for it or for CheckpointEvery.
	CheckpointDir string `json:"-"`
	// CheckpointEvery commits a checkpoint every N completed rounds
	// (hours); 0 means every round. Every round adds one VM-hour per
	// deployed VM, so a cadence of H VM-hours is ceil(H/VMs) rounds. Needs
	// CheckpointDir.
	CheckpointEvery int `json:"-"`
	// Substrate injects a pre-built topology and router instead of
	// generating them — the fleet path, where concurrent engines share one
	// warmed substrate. The substrate's topology config must match what
	// these options would generate (same Seed and Scale); New enforces
	// this, because a mismatched substrate would silently change results.
	Substrate *Substrate `json:"-"`
}

// WithDefaults resolves the two defaulted fields: Seed 0 becomes 1 and
// Scale 0 becomes 0.25. New applies
// it; callers that need the resolved values earlier (the scenario runner's
// substrate cache) call it themselves.
func (o Options) WithDefaults() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Scale == 0 {
		o.Scale = 0.25
	}
	return o
}

// halfBudget is the half of MaxMemoryMB, in bytes, that both of the
// budget's decisions are made against: a campaign whose raw records would
// exceed it spills its log, and the views an engine's campaign results
// hold stay within it together. 0 without a budget.
func (o Options) halfBudget() int64 { return int64(o.MaxMemoryMB) << 20 / 2 }

// DefaultMinSamples is the differential-scan tuple threshold when none is
// given: the paper's >= 100 rule scaled with the vantage-point population,
// floored at 6.
func DefaultMinSamples(scale float64) int {
	return max(int(100*scale), 6)
}

// Validate checks the options' constraints and reports every problem at
// once, each naming the field by its spec key. Zero values mean "default"
// and pass.
func (o Options) Validate() error {
	var errs []error
	nonNegative := func(field string, v int) {
		if v < 0 {
			errs = append(errs, fmt.Errorf("%s: must be non-negative, got %d", field, v))
		}
	}
	if o.Seed < 0 {
		errs = append(errs, fmt.Errorf("seed: must be non-negative, got %d", o.Seed))
	}
	if o.Scale < 0 {
		errs = append(errs, fmt.Errorf("scale: must be positive, got %v", o.Scale))
	}
	nonNegative("parallelism", o.Parallelism)
	nonNegative("captureEvery", o.CaptureEvery)
	nonNegative("tracerouteEvery", o.TracerouteEvery)
	nonNegative("maxMemoryMB", o.MaxMemoryMB)
	nonNegative("checkpointEvery", o.CheckpointEvery)
	if o.CheckpointEvery > 0 && o.CheckpointDir == "" {
		errs = append(errs, errors.New("checkpointEvery: needs checkpointDir to take effect"))
	}
	if _, err := faults.Named(o.FaultProfile); err != nil {
		errs = append(errs, fmt.Errorf("faultProfile: %q is not a canned profile (have %s)", o.FaultProfile, strings.Join(faults.Names(), ", ")))
	}
	return errors.Join(errs...)
}

// Identity returns the part of the options a checkpoint records and a
// resume must match, in canonical form: the fault-free profile is spelled
// "none" and the every-round cadence 1, so equal runs compare equal however
// they were spelled.
func (o Options) Identity() checkpoint.Identity {
	if o.FaultProfile == "" {
		o.FaultProfile = "none"
	}
	return checkpoint.Identity{
		Seed:            o.Seed,
		Scale:           o.Scale,
		FaultProfile:    o.FaultProfile,
		CaptureEvery:    o.CaptureEvery,
		TracerouteEvery: o.TracerouteEvery,
		CheckpointEvery: max(o.CheckpointEvery, 1),
	}
}

// ResumeOptions returns the engine options that reproduce the run a
// checkpoint or command manifest was written by. Callers overlay the
// runtime knobs before New — Parallelism, MaxMemoryMB, SpillDir and the
// CheckpointDir the checkpoint lives under; those may differ from the
// killed run without changing output.
func ResumeOptions(id checkpoint.Identity) Options {
	return Options{
		Seed:            id.Seed,
		Scale:           id.Scale,
		FaultProfile:    id.FaultProfile,
		CaptureEvery:    id.CaptureEvery,
		TracerouteEvery: id.TracerouteEvery,
		CheckpointEvery: id.CheckpointEvery,
	}
}
