// Package faults is CLASP's deterministic fault-injection layer. The
// paper's month-long campaigns on real GCP survived VM preemptions, failed
// speed tests and unreachable servers (failed tests are discarded and
// VM-hours re-planned, §3.2); this package injects those failures into the
// simulated substrate so the orchestrator's resilience machinery — context
// timeouts, capped-exponential retries, a per-region circuit breaker and
// partial-round accounting — is exercised and testable.
//
// # Determinism invariant
//
// Every injection decision is a pure function of (campaign seed, injection
// site, site keys): the injector draws from a splitmix64-style finaliser
// chain — the same idiom as the orchestrator's per-hour schedule seeds —
// and holds no mutable state. Two runs with the same seed therefore fail
// in exactly the same places, retry on exactly the same schedule, and drop
// exactly the same tests, at any parallelism. Retry-sensitive sites
// (transient errors, hangs, VM creation) key on the attempt number so a
// retry can deterministically succeed; a server-unavailability window keys
// on (server, hour) only, so retrying inside the window always fails and
// callers drop the test instead.
//
// With no active profile the injector is nil and every consumer skips the
// fault path entirely; campaign results are bit-identical to a fault-free
// build (pinned by TestFaultProfileNoneBitIdentical in the orchestrator
// package).
package faults

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/clasp-measurement/clasp/internal/netsim"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

// Fault classes.
const (
	// KindVMCreate rejects a CreateVM attempt (control-plane error or
	// quota blip). Keyed per attempt, so retries can succeed.
	KindVMCreate Kind = iota + 1
	// KindTransient fails one speed test execution (connection reset,
	// protocol error). Keyed per attempt, so retries can succeed.
	KindTransient
	// KindUnavailable marks a server unreachable for a whole campaign
	// hour. Keyed by (server, hour) only: retries inside the window keep
	// failing, so callers should drop the test instead of retrying.
	KindUnavailable
	// KindHang blocks a test until its context deadline expires — the
	// injected-latency model of a hung test.
	KindHang
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindVMCreate:
		return "vm-create"
	case KindTransient:
		return "transient"
	case KindUnavailable:
		return "unavailable"
	case KindHang:
		return "hang"
	default:
		return "unknown"
	}
}

// Error is one injected fault.
type Error struct {
	Kind Kind
	Site string
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("injected %s fault (%s)", e.Kind, e.Site)
}

// Retryable reports whether the fault class re-draws its decision per
// attempt, so an immediate retry can succeed. Unavailability windows span a
// whole hour regardless of attempts and are not retryable.
func (e *Error) Retryable() bool {
	switch e.Kind {
	case KindVMCreate, KindTransient, KindHang:
		return true
	default:
		return false
	}
}

// AsError extracts an injected fault from an error chain.
func AsError(err error) (*Error, bool) {
	var fe *Error
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// Profile describes one fault-injection scenario plus the resilience
// policy the orchestrator applies under it. The zero Profile injects
// nothing.
type Profile struct {
	// Injection probabilities.
	VMCreateFailProb  float64 // per CreateVM attempt
	VMPreemptProb     float64 // per VM-hour
	TransientErrProb  float64 // per test attempt
	ServerUnavailProb float64 // per (server, hour) window
	HangProb          float64 // per test attempt; hung tests always exceed TestTimeout
	SlowProb          float64 // per test attempt; slow tests still succeed
	SlowLatency       time.Duration

	// Resilience policy.
	TestTimeout time.Duration // per-test context deadline
	MaxRetries  int           // retries after the first failed attempt
	BackoffBase time.Duration // first retry delay before jitter
	BackoffCap  time.Duration // hard ceiling on any single delay

	// Circuit breaker (round-granular, per region).
	BreakerFailFrac   float64 // dropped fraction of one round that opens the breaker
	BreakerMinSamples int     // minimum tasks in a round before it can trip
	BreakerCooldown   int     // rounds the breaker stays open before probing
}

// Active reports whether the profile injects any fault at all. Inactive
// profiles disable the fault machinery entirely (NewInjector returns nil).
func (p Profile) Active() bool {
	return p.VMCreateFailProb > 0 || p.VMPreemptProb > 0 ||
		p.TransientErrProb > 0 || p.ServerUnavailProb > 0 ||
		p.HangProb > 0 || p.SlowProb > 0
}

// Normalized fills policy defaults so an active profile always has a
// usable timeout, retry budget and breaker configuration.
func (p Profile) Normalized() Profile {
	if p.TestTimeout <= 0 {
		p.TestTimeout = 100 * time.Millisecond
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 3
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = time.Millisecond
	}
	if p.BackoffCap <= 0 {
		p.BackoffCap = 16 * time.Millisecond
	}
	if p.BreakerFailFrac <= 0 {
		p.BreakerFailFrac = 0.5
	}
	if p.BreakerMinSamples <= 0 {
		p.BreakerMinSamples = 10
	}
	if p.BreakerCooldown <= 0 {
		p.BreakerCooldown = 2
	}
	return p
}

// profiles are the canned scenarios exposed on the clasp CLI.
var profiles = map[string]Profile{
	"none": {},
	// flaky-vm models an unreliable control plane: CreateVM rejections,
	// VM preemptions mid-campaign, and occasional transient or hung tests.
	"flaky-vm": {
		VMCreateFailProb: 0.25,
		VMPreemptProb:    0.05,
		TransientErrProb: 0.03,
		HangProb:         0.005,
		TestTimeout:      25 * time.Millisecond,
		MaxRetries:       3,
		BackoffBase:      time.Millisecond,
		BackoffCap:       8 * time.Millisecond,
		// VM faults should not trip the per-region breaker.
		BreakerFailFrac:   0.9,
		BreakerMinSamples: 20,
		BreakerCooldown:   1,
	},
	// outage models a regional failure event: most (server, hour) windows
	// unreachable with frequent transient errors on what remains — the
	// scenario the round-granular circuit breaker exists for. Whole rounds
	// are shed while the outage persists and the cooldown probes recovery.
	"outage": {
		ServerUnavailProb: 0.55,
		TransientErrProb:  0.20,
		HangProb:          0.01,
		TestTimeout:       25 * time.Millisecond,
		MaxRetries:        2,
		BackoffBase:       time.Millisecond,
		BackoffCap:        4 * time.Millisecond,
		BreakerFailFrac:   0.35,
		BreakerMinSamples: 10,
		BreakerCooldown:   2,
	},
	// congested-server models an unhealthy server population: hour-long
	// unavailability windows, frequent transient failures and slow tests.
	"congested-server": {
		ServerUnavailProb: 0.10,
		TransientErrProb:  0.12,
		HangProb:          0.002,
		SlowProb:          0.05,
		SlowLatency:       2 * time.Millisecond,
		TestTimeout:       50 * time.Millisecond,
		MaxRetries:        2,
		BackoffBase:       time.Millisecond,
		BackoffCap:        4 * time.Millisecond,
		BreakerFailFrac:   0.5,
		BreakerMinSamples: 10,
		BreakerCooldown:   2,
	},
}

// Named resolves a canned profile by name ("" is "none").
func Named(name string) (Profile, error) {
	if name == "" {
		name = "none"
	}
	p, ok := profiles[name]
	if !ok {
		return Profile{}, fmt.Errorf("faults: unknown profile %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists the canned profiles, sorted.
func Names() []string {
	out := make([]string, 0, len(profiles))
	for n := range profiles {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Injection-site salts, one per decision class, so distinct sites sharing
// keys draw independent outcomes.
const (
	siteVMCreate uint64 = 0xFA01
	sitePreempt  uint64 = 0xFA02
	siteTrans    uint64 = 0xFA03
	siteUnavail  uint64 = 0xFA04
	siteHang     uint64 = 0xFA05
	siteSlow     uint64 = 0xFA06
	siteBackoff  uint64 = 0xFA07
)

// Injector draws deterministic fault decisions for one campaign. It is
// immutable after creation and safe for concurrent use; every method is
// safe on a nil receiver (a nil injector injects nothing).
type Injector struct {
	prof Profile
	seed int64
}

// NewInjector builds an injector for a campaign seed, or nil when the
// profile injects nothing — callers branch on nil to skip the fault path.
func NewInjector(p Profile, seed int64) *Injector {
	if !p.Active() {
		return nil
	}
	return &Injector{prof: p.Normalized(), seed: seed}
}

// Profile returns the normalized profile the injector runs.
func (in *Injector) Profile() Profile { return in.prof }

// mix64 is the splitmix64 finaliser (same idiom as the orchestrator's
// per-hour schedule seeds).
func mix64(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

// hash folds the seed and site keys through a splitmix64 chain.
func (in *Injector) hash(keys ...uint64) uint64 {
	z := uint64(in.seed)
	for _, k := range keys {
		z += 0x9e3779b97f4a7c15 * (k + 1)
		z = mix64(z)
	}
	return z
}

// hit draws a deterministic Bernoulli(p) decision for a site.
func (in *Injector) hit(p float64, keys ...uint64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return float64(in.hash(keys...)>>11)/(1<<53) < p
}

// KeyString hashes a string (VM name, region) into a fault-site key.
func KeyString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// FailVMCreate decides whether CreateVM attempt `attempt` (0-based) for
// the named VM is rejected. Implements cloud.VMFaults.
func (in *Injector) FailVMCreate(name string, attempt int) error {
	if in == nil || !in.hit(in.prof.VMCreateFailProb, siteVMCreate, KeyString(name), uint64(attempt)) {
		return nil
	}
	return &Error{Kind: KindVMCreate, Site: name}
}

// PreemptVM decides whether the named VM is preempted during the given
// campaign hour.
func (in *Injector) PreemptVM(name string, hour int) bool {
	return in != nil && in.hit(in.prof.VMPreemptProb, sitePreempt, KeyString(name), uint64(hour))
}

// BeforeMeasure injects measurement faults for one test execution:
// an unavailability window, a hang (blocks until ctx expires), added
// latency on a slow test, or a transient error. Implements
// netsim.TestFaults; ctx bounds every injected delay.
func (in *Injector) BeforeMeasure(ctx context.Context, spec netsim.TestSpec) error {
	if in == nil || spec.Server == nil {
		return nil
	}
	srv := uint64(spec.Server.ID)
	hour := uint64(spec.Time.Unix() / 3600)
	reg := KeyString(spec.Region)
	dir, tier := uint64(spec.Dir), uint64(spec.Tier)
	attempt := uint64(spec.Attempt)
	site := fmt.Sprintf("server %d/%s/%s", spec.Server.ID, spec.Tier, spec.Dir)

	// The whole-hour window first: it ignores the attempt number so the
	// caller sees a non-retryable fault on every attempt.
	if in.hit(in.prof.ServerUnavailProb, siteUnavail, reg, srv, hour) {
		return &Error{Kind: KindUnavailable, Site: site}
	}
	if in.hit(in.prof.HangProb, siteHang, reg, srv, hour, dir, tier, attempt) {
		<-ctx.Done()
		return &Error{Kind: KindHang, Site: site}
	}
	if in.prof.SlowLatency > 0 && in.hit(in.prof.SlowProb, siteSlow, reg, srv, hour, dir, tier, attempt) {
		t := time.NewTimer(in.prof.SlowLatency)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return &Error{Kind: KindHang, Site: site}
		}
	}
	if in.hit(in.prof.TransientErrProb, siteTrans, reg, srv, hour, dir, tier, attempt) {
		return &Error{Kind: KindTransient, Site: site}
	}
	return nil
}

// Backoff returns the delay before retry `attempt` (0-based) at a site.
// The schedule is capped exponential with hashed — not wall-clock-random —
// jitter: base·2^attempt scaled into [0.5, 1.0), never above BackoffCap.
// The schedule is a pure function of (seed, keys, attempt); tests pin it.
func (in *Injector) Backoff(attempt int, keys ...uint64) time.Duration {
	if in == nil {
		return 0
	}
	d := in.prof.BackoffCap
	if attempt < 62 {
		if exp := in.prof.BackoffBase << uint(attempt); exp > 0 && exp < d {
			d = exp
		}
	}
	ks := make([]uint64, 0, len(keys)+2)
	ks = append(ks, siteBackoff)
	ks = append(ks, keys...)
	ks = append(ks, uint64(attempt))
	jitter := 0.5 + 0.5*float64(in.hash(ks...)>>11)/(1<<53)
	d = time.Duration(float64(d) * jitter)
	if d > in.prof.BackoffCap {
		d = in.prof.BackoffCap
	}
	return d
}
