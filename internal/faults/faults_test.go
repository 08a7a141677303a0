package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func activeProfile() Profile {
	return Profile{
		VMCreateFailProb: 0.3,
		VMPreemptProb:    0.1,
		TransientErrProb: 0.2,
		HangProb:         0.01,
		TestTimeout:      5 * time.Millisecond,
		MaxRetries:       3,
		BackoffBase:      time.Millisecond,
		BackoffCap:       4 * time.Millisecond,
	}
}

func TestNamedProfiles(t *testing.T) {
	p, err := Named("")
	if err != nil || p != (Profile{}) {
		t.Errorf(`Named("") = %+v, %v; want the none profile`, p, err)
	}
	if p.Active() {
		t.Error("none profile reports Active")
	}
	for _, name := range []string{"flaky-vm", "congested-server"} {
		p, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if !p.Active() {
			t.Errorf("profile %q is not active", name)
		}
	}
	if _, err := Named("no-such-profile"); err == nil {
		t.Error("unknown profile name did not error")
	}
	names := Names()
	if len(names) != 4 {
		t.Fatalf("Names() = %v, want 4 canned profiles", names)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("Names() not sorted: %v", names)
		}
	}
}

func TestNormalizedFillsPolicyDefaults(t *testing.T) {
	p := Profile{TransientErrProb: 0.5}.Normalized()
	if p.TestTimeout <= 0 || p.MaxRetries <= 0 || p.BackoffBase <= 0 ||
		p.BackoffCap <= 0 || p.BreakerFailFrac <= 0 ||
		p.BreakerMinSamples <= 0 || p.BreakerCooldown <= 0 {
		t.Errorf("Normalized left zero policy fields: %+v", p)
	}
}

func TestErrorRetryable(t *testing.T) {
	cases := []struct {
		kind Kind
		want bool
	}{
		{KindVMCreate, true},
		{KindTransient, true},
		{KindHang, true},
		{KindUnavailable, false},
	}
	for _, c := range cases {
		e := &Error{Kind: c.kind, Site: "x"}
		if e.Retryable() != c.want {
			t.Errorf("(%s).Retryable() = %v, want %v", c.kind, e.Retryable(), c.want)
		}
	}
}

func TestAsErrorUnwrapsChains(t *testing.T) {
	inner := &Error{Kind: KindTransient, Site: "server 3"}
	wrapped := errors.Join(errors.New("outer"), inner)
	fe, ok := AsError(wrapped)
	if !ok || fe.Kind != KindTransient {
		t.Errorf("AsError(wrapped) = %v, %v; want the inner fault", fe, ok)
	}
	if _, ok := AsError(errors.New("plain")); ok {
		t.Error("AsError matched a non-fault error")
	}
}

func TestNewInjectorNilForInactiveProfiles(t *testing.T) {
	if in := NewInjector(Profile{}, 1); in != nil {
		t.Error("zero profile produced a non-nil injector")
	}
	none, _ := Named("none")
	if in := NewInjector(none, 1); in != nil {
		t.Error("none profile produced a non-nil injector")
	}
	if in := NewInjector(activeProfile(), 1); in == nil {
		t.Error("active profile produced a nil injector")
	}
}

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.FailVMCreate("vm", 0); err != nil {
		t.Errorf("nil FailVMCreate = %v", err)
	}
	if in.PreemptVM("vm", 3) {
		t.Error("nil PreemptVM preempted")
	}
	spec := netsim.TestSpec{Server: &topology.Server{ID: 1}}
	if err := in.BeforeMeasure(context.Background(), spec); err != nil {
		t.Errorf("nil BeforeMeasure = %v", err)
	}
	if d := in.Backoff(2, 7); d != 0 {
		t.Errorf("nil Backoff = %v, want 0", d)
	}
}

// TestDecisionsDeterministicPerSeed pins the package's core invariant: all
// decisions are pure functions of (seed, site, keys), so two injectors with
// the same seed agree everywhere and a different seed disagrees somewhere.
func TestDecisionsDeterministicPerSeed(t *testing.T) {
	prof := activeProfile()
	a := NewInjector(prof, 42)
	b := NewInjector(prof, 42)
	c := NewInjector(prof, 43)

	sameVM, sameCreate, diff := 0, 0, 0
	for vm := 0; vm < 20; vm++ {
		name := "clasp-us-east1-premium-" + string(rune('a'+vm))
		for hour := 0; hour < 48; hour++ {
			if a.PreemptVM(name, hour) != b.PreemptVM(name, hour) {
				t.Fatalf("same-seed PreemptVM diverged at vm=%d hour=%d", vm, hour)
			}
			if a.PreemptVM(name, hour) {
				sameVM++
			}
			if a.PreemptVM(name, hour) != c.PreemptVM(name, hour) {
				diff++
			}
		}
		for attempt := 0; attempt < 4; attempt++ {
			ea := a.FailVMCreate(name, attempt)
			eb := b.FailVMCreate(name, attempt)
			if (ea == nil) != (eb == nil) {
				t.Fatalf("same-seed FailVMCreate diverged at vm=%d attempt=%d", vm, attempt)
			}
			if ea != nil {
				sameCreate++
			}
		}
	}
	if sameVM == 0 || sameCreate == 0 {
		t.Errorf("no faults drawn at all (preempts=%d creates=%d); probabilities broken", sameVM, sameCreate)
	}
	if diff == 0 {
		t.Error("different seeds produced identical decision streams")
	}
}

// TestBackoffSchedule pins the retry schedule: deterministic per (seed,
// keys), capped-exponential growth, and never above BackoffCap.
func TestBackoffSchedule(t *testing.T) {
	prof := activeProfile()
	a := NewInjector(prof, 7)
	b := NewInjector(prof, 7)

	var sched []time.Duration
	for attempt := 0; attempt < 8; attempt++ {
		da := a.Backoff(attempt, 11, 22)
		db := b.Backoff(attempt, 11, 22)
		if da != db {
			t.Fatalf("same-seed schedules diverge at attempt %d: %v vs %v", attempt, da, db)
		}
		if da <= 0 {
			t.Errorf("attempt %d: non-positive delay %v", attempt, da)
		}
		if da > prof.BackoffCap {
			t.Errorf("attempt %d: delay %v exceeds cap %v", attempt, da, prof.BackoffCap)
		}
		// Jitter scales base·2^attempt into [0.5, 1.0), cap applied after.
		exp := prof.BackoffBase << uint(attempt)
		if exp > prof.BackoffCap {
			exp = prof.BackoffCap
		}
		if da < exp/2 {
			t.Errorf("attempt %d: delay %v below jitter floor %v", attempt, da, exp/2)
		}
		sched = append(sched, da)
	}
	// Huge attempt numbers must not overflow the shift into a negative or
	// zero delay.
	if d := a.Backoff(200, 11, 22); d <= 0 || d > prof.BackoffCap {
		t.Errorf("Backoff(200) = %v, want within (0, %v]", d, prof.BackoffCap)
	}
	// Different key sets draw different jitter somewhere in the schedule.
	same := true
	for attempt := range sched {
		if a.Backoff(attempt, 33, 44) != sched[attempt] {
			same = false
			break
		}
	}
	if same {
		t.Error("backoff schedule ignores site keys")
	}
}

func TestBeforeMeasureUnavailableWindowIgnoresAttempt(t *testing.T) {
	prof := activeProfile()
	prof.ServerUnavailProb = 1 // every (server, hour) window is down
	in := NewInjector(prof, 5)
	spec := netsim.TestSpec{
		Region: "us-east1",
		Server: &topology.Server{ID: 9},
		Time:   time.Date(2020, 5, 1, 3, 0, 0, 0, time.UTC),
	}
	for attempt := 0; attempt < 4; attempt++ {
		spec.Attempt = attempt
		err := in.BeforeMeasure(context.Background(), spec)
		fe, ok := AsError(err)
		if !ok || fe.Kind != KindUnavailable {
			t.Fatalf("attempt %d: got %v, want an unavailable fault", attempt, err)
		}
		if fe.Retryable() {
			t.Fatal("unavailability window reported retryable")
		}
	}
}

func TestBeforeMeasureHangBlocksUntilDeadline(t *testing.T) {
	prof := activeProfile()
	prof.ServerUnavailProb = 0
	prof.HangProb = 1
	in := NewInjector(prof, 5)
	spec := netsim.TestSpec{
		Region: "us-east1",
		Server: &topology.Server{ID: 2},
		Time:   time.Date(2020, 5, 1, 7, 0, 0, 0, time.UTC),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := in.BeforeMeasure(ctx, spec)
	if fe, ok := AsError(err); !ok || fe.Kind != KindHang {
		t.Fatalf("got %v, want a hang fault", err)
	}
	if waited := time.Since(start); waited < 10*time.Millisecond {
		t.Errorf("hang returned after %v, before the %v deadline", waited, 10*time.Millisecond)
	}
}

func TestBeforeMeasureSlowAddsLatencyThenPasses(t *testing.T) {
	prof := Profile{
		SlowProb:    1,
		SlowLatency: 5 * time.Millisecond,
	}
	in := NewInjector(prof, 5)
	spec := netsim.TestSpec{
		Region: "us-east1",
		Server: &topology.Server{ID: 4},
		Time:   time.Date(2020, 5, 1, 9, 0, 0, 0, time.UTC),
	}
	start := time.Now()
	if err := in.BeforeMeasure(context.Background(), spec); err != nil {
		t.Fatalf("slow test failed: %v", err)
	}
	if waited := time.Since(start); waited < 5*time.Millisecond {
		t.Errorf("slow test waited only %v, want >= %v", waited, 5*time.Millisecond)
	}
	// A deadline shorter than the latency converts the slow test to a hang.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	err := in.BeforeMeasure(ctx, spec)
	if fe, ok := AsError(err); !ok || fe.Kind != KindHang {
		t.Errorf("slow test under a short deadline: got %v, want a hang fault", err)
	}
}

// TestTransientRetryCanSucceed pins the attempt-keyed redraw: a spec whose
// first attempt fails must deterministically succeed at the same later
// attempt on every rerun.
func TestTransientRetryCanSucceed(t *testing.T) {
	prof := Profile{TransientErrProb: 0.5}
	in := NewInjector(prof, 11)
	succeedsAt := func(serverID int) int {
		spec := netsim.TestSpec{
			Region: "us-east1",
			Server: &topology.Server{ID: serverID},
			Time:   time.Date(2020, 5, 1, 12, 0, 0, 0, time.UTC),
		}
		for attempt := 0; attempt < 16; attempt++ {
			spec.Attempt = attempt
			if in.BeforeMeasure(context.Background(), spec) == nil {
				return attempt
			}
		}
		return -1
	}
	sawRetrySuccess := false
	for id := 0; id < 32; id++ {
		first := succeedsAt(id)
		if first < 0 {
			continue // pathologically unlucky server; others cover the case
		}
		if again := succeedsAt(id); again != first {
			t.Fatalf("server %d: success attempt moved %d -> %d across reruns", id, first, again)
		}
		if first > 0 {
			sawRetrySuccess = true
		}
	}
	if !sawRetrySuccess {
		t.Error("no server needed a retry at p=0.5; attempt keying broken")
	}
}
