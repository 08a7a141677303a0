package faults

import "testing"

func TestBreakerNilSafe(t *testing.T) {
	var b *Breaker
	if !b.Allow() || b.State() != Closed {
		t.Error("nil breaker is not permanently closed")
	}
	b.ObserveRound(100, 100) // must not panic
	if !b.Allow() {
		t.Error("nil breaker opened")
	}
}

func TestBreakerStateStrings(t *testing.T) {
	if Closed.String() != "closed" || HalfOpen.String() != "half-open" || Open.String() != "open" {
		t.Errorf("state strings: %v %v %v", Closed, HalfOpen, Open)
	}
}

func TestBreakerTripAndRecover(t *testing.T) {
	b := NewBreaker(0.5, 10, 2, new(BreakerStatus))

	// Below the sample floor: even a fully failed round cannot trip.
	b.ObserveRound(5, 5)
	if b.State() != Closed {
		t.Fatalf("tripped below minSamples: %v", b.State())
	}
	// At the floor but under the failure fraction: stays closed.
	b.ObserveRound(4, 10)
	if b.State() != Closed {
		t.Fatalf("tripped under failFrac: %v", b.State())
	}
	// At the floor and fraction: trips.
	b.ObserveRound(5, 10)
	if b.State() != Open || b.Allow() {
		t.Fatalf("did not trip at failFrac: %v", b.State())
	}

	// Two shed rounds of cooldown, then the half-open probe.
	b.ObserveRound(10, 0)
	if b.State() != Open {
		t.Fatalf("cooldown ended after 1 of 2 rounds: %v", b.State())
	}
	b.ObserveRound(10, 0)
	if b.State() != HalfOpen || !b.Allow() {
		t.Fatalf("not half-open after cooldown: %v", b.State())
	}

	// An empty probe round is no evidence; the breaker stays half-open.
	b.ObserveRound(0, 0)
	if b.State() != HalfOpen {
		t.Fatalf("empty probe round moved state: %v", b.State())
	}

	// A failed probe reopens for a fresh cooldown...
	b.ObserveRound(10, 10)
	if b.State() != Open {
		t.Fatalf("failed probe did not reopen: %v", b.State())
	}
	b.ObserveRound(10, 0)
	b.ObserveRound(10, 0)
	if b.State() != HalfOpen {
		t.Fatalf("second cooldown did not end: %v", b.State())
	}
	// ...and a healthy probe closes it. A half-open probe needs no
	// minSamples: any executed round with a healthy failure fraction closes.
	b.ObserveRound(0, 3)
	if b.State() != Closed || !b.Allow() {
		t.Fatalf("healthy probe did not close: %v", b.State())
	}
}

func TestNewBreakerGuardsDegenerateConfig(t *testing.T) {
	b := NewBreaker(0, 0, 0, new(BreakerStatus))
	// Defaults: fail fraction 0.5, one-sample floor, one-round cooldown.
	b.ObserveRound(1, 1)
	if b.State() != Open {
		t.Fatalf("defaulted breaker did not trip on a fully failed round: %v", b.State())
	}
	b.ObserveRound(1, 0)
	if b.State() != HalfOpen {
		t.Fatalf("defaulted cooldown is not one round: %v", b.State())
	}
}
