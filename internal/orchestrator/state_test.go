package orchestrator

import (
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/cloud"
	"github.com/clasp-measurement/clasp/internal/faults"
)

// rebuiltOnResume lists every campaign field that is not checkpointed, with
// what newCampaign rebuilds it from. A field belongs here only if a resumed
// run can recompute it from (Config, Progress); anything that accumulates
// across rounds belongs in Progress instead.
var rebuiltOnResume = map[string]string{
	"o":          "the Orchestrator Run was called on",
	"cfg":        "Run's argument, defaults applied",
	"log":        "Run's argument; the caller opens it on the checkpointed records",
	"total":      "Config.Days",
	"perTierVMs": "len(Config.Servers)",
	"inj":        "Config.Faults and Config.Seed; immutable",
	"pol":        "the injector's profile",
	"breaker":    "the profile's static configuration over a pointer to Progress.Breaker",
	"canBlock":   "Config.Measure and the injector",
	"flows":      "the simulator's flow cache, re-resolved by each flow's first test; pure in (Config, topology, seed)",
	"round":      "plan refills it from (Config, NextHour, Downloads) before anything reads it",
	"order":      "the identity under Config.FixedOrder, else plan's buffer: the hour's permutation is a pure function of (Config.Seed, NextHour)",
	"rng":        "re-seeded from (Config.Seed, NextHour) by every plan; carries nothing across rounds",
	"vms":        "deploy re-creates them; restore re-empties Progress.DeadVMs",
	"specs":      "deploy; zone assignment is deterministic on a fresh platform",
	"collectors": "deploy; they only feed Report.MaxVMCPUUtil, folded every commit",
	"prober":     "Config.Region and Config.Seed; stateless",
	"metrics":    "process-local observers, restarted from the restored Report",
	"span":       "process-local observer",
	"wallStart":  "process-local wall clock, feeds the ETA gauge only",
}

// TestCampaignStateIsCheckpointed is the guard that new cross-round state
// cannot miss the checkpoint: every field of the struct the round loop
// mutates is either part of the embedded Progress — which is what a
// checkpoint serialises — or listed above with the reason it need not be.
func TestCampaignStateIsCheckpointed(t *testing.T) {
	typ := reflect.TypeOf(campaign{})
	embedsProgress := false
	seen := map[string]bool{}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Anonymous && f.Type == reflect.TypeOf(Progress{}) {
			embedsProgress = true
			continue
		}
		seen[f.Name] = true
		if rebuiltOnResume[f.Name] == "" {
			t.Errorf("campaign.%s is neither part of Progress nor listed in rebuiltOnResume: move it into Progress, or say what a resumed run rebuilds it from", f.Name)
		}
	}
	if !embedsProgress {
		t.Error("campaign no longer embeds Progress: the loop's state is not the checkpoint's")
	}
	for name := range rebuiltOnResume {
		if !seen[name] {
			t.Errorf("rebuiltOnResume lists %q, which is not a campaign field", name)
		}
	}
}

var errStopped = errors.New("stopped at checkpoint")

// TestCheckpointCarriesCPUPeak: MaxVMCPUUtil is folded into the live report
// every round, so a checkpoint holds the peak so far and a resumed run
// reports the whole campaign's peak, not just its own rounds'.
func TestCheckpointCarriesCPUPeak(t *testing.T) {
	cfg := Config{Region: "us-east1", Days: 1, Seed: 8}
	var saved Progress
	cfg.OnCheckpoint = func(p Progress) error {
		if p.NextHour < 5 {
			return nil
		}
		saved = p
		return errStopped
	}
	f := setup(t)
	cfg.Servers = f.topo.Servers()[:4]
	if _, err := f.orch.Run(cfg, analysis.NewRecordLog()); !errors.Is(err, errStopped) {
		t.Fatalf("stopped run returned %v", err)
	}
	if saved.Report.MaxVMCPUUtil <= 0 {
		t.Fatalf("checkpoint at hour %d carries MaxVMCPUUtil %v, want the peak of the rounds so far", saved.NextHour, saved.Report.MaxVMCPUUtil)
	}
	// Make the checkpointed peak unreachable for the resumed rounds' own
	// samples, so only carrying it over can report it.
	saved.Report.MaxVMCPUUtil = 2
	f = setup(t)
	cfg.Servers = f.topo.Servers()[:4]
	cfg.OnCheckpoint, cfg.Resume = nil, &saved
	rep, err := f.orch.Run(cfg, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxVMCPUUtil < 2 {
		t.Errorf("resumed run reports MaxVMCPUUtil %v, below the checkpointed %v", rep.MaxVMCPUUtil, 2.0)
	}
}

// TestCheckpointCadenceFollowsWatermark: checkpoints land where the
// watermark is a multiple of the cadence and at the last hour regardless, so
// a finished campaign always has a checkpoint that says so.
func TestCheckpointCadenceFollowsWatermark(t *testing.T) {
	for _, tc := range []struct {
		every int
		want  []int
	}{
		{0, []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24}},
		{6, []int{6, 12, 18, 24}},
		{7, []int{7, 14, 21, 24}},
		{100, []int{24}},
	} {
		f := setup(t)
		var got []int
		_, err := f.orch.Run(Config{
			Region: "us-east1", Servers: f.topo.Servers()[:2], Days: 1, Seed: 2,
			CheckpointEvery: tc.every,
			OnCheckpoint:    func(p Progress) error { got = append(got, p.NextHour); return nil },
		}, analysis.NewRecordLog())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("cadence %d: checkpoints at hours %v, want %v", tc.every, got, tc.want)
		}
	}
}

// TestRestoreHandsStateBack: restore followed by checkpointState is the
// identity, including the two values the campaign struct does not hold
// itself — the platform's create-attempt residue and the dead VM slots.
func TestRestoreHandsStateBack(t *testing.T) {
	f := setup(t)
	prof, err := faults.Named("flaky-vm")
	if err != nil {
		t.Fatal(err)
	}
	want := Progress{
		NextHour:         7,
		Downloads:        7 * 9,
		Report:           Report{Region: "us-east1", VMs: 2, Tests: 120, Hours: 7, MaxVMCPUUtil: 0.5, Resilience: Resilience{Dropped: 6, Preemptions: 1, VMCreateRetries: 4}},
		Breaker:          faults.BreakerStatus{State: faults.Open, OpenRounds: 1},
		VMCreateAttempts: map[string]int{"clasp-us-east1-premium-1": 4},
		DeadVMs:          []int{1},
	}
	c, err := f.orch.newCampaign(Config{
		Region: "us-east1", Servers: f.topo.Servers()[:9], Days: 1, Seed: 4, Faults: prof, Resume: &want,
	}, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if got := c.checkpointState(); !reflect.DeepEqual(got, want) {
		t.Errorf("restore then checkpointState:\n%+v\nwant\n%+v", got, want)
	}
	if c.breaker.Allow() {
		t.Error("restored breaker is not open")
	}
	if vms := f.platform.ListVMs("us-east1"); len(vms) != 1 {
		t.Errorf("%d VMs running after restoring one dead slot of two", len(vms))
	}
}

// TestResumeAtEveryHourIsBitIdentical is the resume property at the
// orchestrator's own level: under every canned fault profile, a campaign
// stopped at every hour boundary, its Progress taken through JSON (what a
// checkpoint file does to it) and resumed on a fresh platform at a different
// parallelism finishes with the records and report of the run that was
// never stopped. The stopped campaign advances one hour per restart, so the
// state also survives being resumed from a resumed run. Crossing every hour
// crosses every phase of the cross-round state — an open breaker
// mid-cooldown, a half-open probe, preempted and re-created VMs, the capture
// cadence — and the test fails if a profile stops producing the phases it is
// here for. (Dead VM slots are not among them: create decisions are keyed on
// (name, attempt) and the attempt counter resets on success, so a VM that
// deployed once always re-creates; TestRestoreHandsStateBack covers them.)
func TestResumeAtEveryHourIsBitIdentical(t *testing.T) {
	f := setup(t)
	servers := f.topo.USServers()[:9]
	const days = 2
	for _, name := range faults.Names() {
		t.Run(name, func(t *testing.T) {
			prof, err := faults.Named(name)
			if err != nil {
				t.Fatal(err)
			}
			// Injection decisions are hashed from the seed and task
			// coordinates; the durations only cost wall-clock time. Slow
			// tests (which succeed anyway) are off: their latency racing the
			// timeout is the one place where the clock decides an outcome.
			prof.TestTimeout, prof.SlowLatency = time.Millisecond, 0
			prof.BackoffBase, prof.BackoffCap = time.Nanosecond, time.Nanosecond
			// Every run gets a fresh platform, as a restarted process would;
			// the simulator is pure and shared.
			run := func(cfg Config, log *analysis.RecordLog) (*Report, error) {
				cfg.Region, cfg.Servers, cfg.Days, cfg.Seed = "us-east1", servers, days, 23
				cfg.Tiers = []bgp.Tier{bgp.Premium, bgp.Standard} // 36 tests an hour on 4 VMs
				cfg.Faults, cfg.CaptureEvery, cfg.TracerouteEvery = prof, 7, 1
				rep, err := New(f.sim, cloud.New(f.topo, cloud.Pricing{}), nil).Run(cfg, log)
				if rep != nil {
					rep.MaxVMCPUUtil = 0 // host telemetry, not part of the contract
				}
				return rep, err
			}
			want := analysis.NewRecordLog()
			wantRep, err := run(Config{Parallelism: 1}, want)
			if err != nil {
				t.Fatal(err)
			}

			var sawOpen, sawHalfOpen bool
			stopped := analysis.NewRecordLog() // the stopped campaign's records so far
			var at *Progress                   // and its last checkpoint; nil before hour 0
			for h := 1; h <= days*24; h++ {
				var saved []byte
				_, err := run(Config{Parallelism: 1 + h%4, Resume: at, OnCheckpoint: func(p Progress) (err error) {
					if saved, err = json.Marshal(p); err != nil {
						return err
					}
					return errStopped
				}}, stopped)
				if !errors.Is(err, errStopped) {
					t.Fatalf("hour %d: stopped run returned %v", h, err)
				}
				at = new(Progress)
				if err := json.Unmarshal(saved, at); err != nil {
					t.Fatal(err)
				}
				if at.NextHour != h {
					t.Fatalf("stopped at watermark %d, want %d", at.NextHour, h)
				}
				sawOpen = sawOpen || at.Breaker.State == faults.Open && at.Breaker.OpenRounds < prof.BreakerCooldown
				sawHalfOpen = sawHalfOpen || at.Breaker.State == faults.HalfOpen

				got := analysis.NewRecordLog()
				for _, m := range records(stopped) { // the records the stopped runs wrote
					got.Append(m)
				}
				rep, err := run(Config{Parallelism: 1 + (h+2)%4, Resume: at}, got)
				if err != nil {
					t.Fatalf("hour %d: resumed run: %v", h, err)
				}
				if !reflect.DeepEqual(rep, wantRep) {
					t.Fatalf("resumed at hour %d: report\n%+v\nwant\n%+v", h, rep, wantRep)
				}
				if !slices.Equal(records(got), records(want)) {
					t.Fatalf("resumed at hour %d: %d records differ from the uninterrupted run's %d", h, got.Len(), want.Len())
				}
			}
			switch name {
			case "outage":
				if !sawOpen || !sawHalfOpen {
					t.Errorf("no checkpoint crossed an open breaker mid-cooldown (%v) and a half-open one (%v)", sawOpen, sawHalfOpen)
				}
			case "flaky-vm":
				if wantRep.Preemptions == 0 || wantRep.VMCreateRetries == 0 {
					t.Errorf("no preempted VM was re-created with retries: %+v", wantRep)
				}
			}
		})
	}
}
