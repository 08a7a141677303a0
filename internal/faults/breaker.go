package faults

// BreakerState is a circuit-breaker state.
type BreakerState int

// Circuit-breaker states. Closed admits traffic; Open sheds a whole round
// (the orchestrator drops its tests with explicit accounting); HalfOpen
// admits one probe round whose outcome closes or reopens the breaker.
const (
	Closed BreakerState = iota
	HalfOpen
	Open
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case HalfOpen:
		return "half-open"
	default:
		return "open"
	}
}

// BreakerStatus is a breaker's whole dynamic state. It is declared apart
// from the Breaker so its owner can keep it wherever the rest of its state
// lives: the orchestrator's is a field of the campaign Progress, so the
// breaker transitions the very struct a checkpoint serialises and a resumed
// run re-enters the exact state (mid-cooldown included) the killed run was
// in. The static configuration is not part of it: it is re-derived from the
// fault profile.
type BreakerStatus struct {
	State      BreakerState `json:"state"`
	OpenRounds int          `json:"openRounds"` // cooldown rounds remaining while Open
}

// Breaker is a round-granular circuit breaker for one region's campaign.
// State only changes at round boundaries, driven by order-independent
// per-round counts, so campaigns remain deterministic at any parallelism
// (no failure-arrival races can flip the trip point). It is used from one
// campaign goroutine and needs no locking; all methods are safe on a nil
// receiver (a nil breaker never opens).
type Breaker struct {
	failFrac   float64
	minSamples int
	cooldown   int
	st         *BreakerStatus
}

// NewBreaker builds a breaker over the caller-owned status st. It opens when
// a round drops at least failFrac of its tasks (with at least minSamples
// tasks scheduled) and stays open for cooldown rounds before probing.
func NewBreaker(failFrac float64, minSamples, cooldown int, st *BreakerStatus) *Breaker {
	if failFrac <= 0 {
		failFrac = 0.5
	}
	if minSamples <= 0 {
		minSamples = 1
	}
	if cooldown <= 0 {
		cooldown = 1
	}
	return &Breaker{failFrac: failFrac, minSamples: minSamples, cooldown: cooldown, st: st}
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	if b == nil {
		return Closed
	}
	return b.st.State
}

// Allow reports whether the next round may execute. False means the caller
// should shed the round (dropping its tasks) and report it via
// ObserveRound(dropped, 0 executed) — by convention ObserveRound with
// total == 0 while Open advances the cooldown.
func (b *Breaker) Allow() bool { return b.State() != Open }

// ObserveRound ingests one round boundary: failed is the number of tasks
// that ended without a result (dropped), total the number that executed.
// While Open, call it with total == 0 for each shed round to advance the
// cooldown toward HalfOpen.
func (b *Breaker) ObserveRound(failed, total int) {
	if b == nil {
		return
	}
	switch b.st.State {
	case Open:
		b.st.OpenRounds--
		if b.st.OpenRounds <= 0 {
			b.st.State = HalfOpen
		}
	case HalfOpen:
		if total == 0 {
			return
		}
		if float64(failed) >= b.failFrac*float64(total) {
			b.trip()
		} else {
			b.st.State = Closed
		}
	default: // Closed
		if total >= b.minSamples && float64(failed) >= b.failFrac*float64(total) {
			b.trip()
		}
	}
}

func (b *Breaker) trip() {
	*b.st = BreakerStatus{State: Open, OpenRounds: b.cooldown}
}
