// Package alias resolves router interface aliases with the shared-IP-ID
// counter technique (MIDAR-style): interfaces of one router stamp outgoing
// packets from a single monotonically increasing IP-ID counter, so probes
// to two aliases interleave into one monotonic sequence, while probes to
// different routers do not.
//
// The probe side is simulated against the topology's ground-truth routers;
// the resolution algorithm itself (monotonic-interleaving test + transitive
// grouping) is the real inference CLASP's bdrmap stage depends on.
package alias

import (
	"net/netip"
	"slices"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// obsResolves counts Resolve calls, one per candidate set; a no-op while
// the obs registry is disabled.
var obsResolves = obs.Default().Counter("alias_resolve_calls_total")

// Prober answers IP-ID probes for router interface addresses.
type Prober struct {
	topo *topology.Topology
	seed int64
}

// NewProber creates an alias prober over the topology's routers.
func NewProber(t *topology.Topology, seed int64) *Prober {
	return &Prober{topo: t, seed: seed}
}

// counter is one router's IP-ID counter: a per-router base and velocity,
// advancing with time, plus small per-probe noise from other traffic. h is
// the hash state folded through (seed, router), so a probe hashes only its
// tick.
type counter struct {
	base, velocity uint64
	h              uint64
}

// counterOf derives the counter behind addr once. ok is false when the
// address is not a responsive router interface.
func (p *Prober) counterOf(addr netip.Addr) (counter, bool) {
	r := p.topo.RouterOf(addr)
	if r < 0 {
		return counter{}, false
	}
	h := hashMix(hashMix(fnvOffset, uint64(p.seed)), uint64(r))
	return counter{
		base:     hashFinal(hashMix(h, 0x1)) % 40000,
		velocity: 3 + hashFinal(hashMix(h, 0x2))%40,
		h:        h,
	}, true
}

// at is the IP-ID a probe at virtual time tick reads.
func (c counter) at(tick int) uint16 {
	jitter := hashFinal(hashMix(hashMix(c.h, uint64(tick)), 0x3)) % 3
	return uint16(c.base + c.velocity*uint64(tick) + jitter)
}

// sample is one observation in a probe series.
type sample struct {
	tick int
	id   uint16
}

// Resolve groups candidate interface addresses into alias sets. It probes
// each candidate in an interleaved schedule and merges pairs whose combined
// IP-ID series stays monotonic (modulo wraparound).
func (p *Prober) Resolve(candidates []netip.Addr) [][]netip.Addr {
	obsResolves.Inc()
	// Deduplicate and keep responsive candidates only, each with its
	// router's counter.
	type candidate struct {
		addr netip.Addr
		c    counter
	}
	addrs := slices.Clone(candidates)
	slices.SortFunc(addrs, netip.Addr.Compare)
	cands := make([]candidate, 0, len(addrs))
	for _, a := range slices.Compact(addrs) {
		if c, ok := p.counterOf(a); ok {
			cands = append(cands, candidate{a, c})
		}
	}

	// Interleaved probing: for each address, collect a short series at
	// staggered ticks. series[i] belongs to cands[i] and is tick-sorted,
	// since ticks grow with the round; all series are carved, with capacity
	// for every round, out of one backing array.
	const rounds = 5
	series := make([][]sample, len(cands))
	backing := make([]sample, 0, rounds*len(cands))
	for i := range series {
		series[i] = backing[i*rounds : i*rounds : (i+1)*rounds]
	}
	for round := 0; round < rounds; round++ {
		for i, c := range cands {
			tick := round*len(cands)*2 + i*2
			series[i] = append(series[i], sample{tick: tick, id: c.c.at(tick)})
		}
	}

	// Union-find over candidate indices.
	parent := make([]int, len(cands))
	for i := range parent {
		parent[i] = i
	}
	var find func(i int) int
	find = func(i int) int {
		if parent[i] != i {
			parent[i] = find(parent[i])
		}
		return parent[i]
	}

	// Pairwise shared-counter test. O(n^2) pairs, as in MIDAR's
	// estimation stage; candidate sets here are per-neighbor and small.
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if sharedCounter(series[i], series[j]) {
				if ri, rj := find(i), find(j); ri != rj {
					parent[rj] = ri
				}
			}
		}
	}

	// cands is sorted, so walking it in order fills every group in address
	// order and meets the groups in order of their smallest member.
	groupOf := make([]int, len(cands)) // by root: 1 + the group's index in out, 0 before
	out := [][]netip.Addr{}
	for i, c := range cands {
		r := find(i)
		if groupOf[r] == 0 {
			out = append(out, nil)
			groupOf[r] = len(out)
		}
		out[groupOf[r]-1] = append(out[groupOf[r]-1], c.addr)
	}
	return out
}

// sharedCounter reports whether two probe series, taken together, are
// consistent with a single linearly advancing IP-ID counter: after
// estimating the counter velocity from the earliest and latest
// observations, every sample must sit within a small tolerance of the
// fitted line (allowing 16-bit wraparound). Interfaces of one router pass;
// two routers with independent bases and velocities essentially never do.
// Each series must be tick-sorted; the per-sample test does not depend on
// the order samples are visited in, so the two series are never merged.
func sharedCounter(a, b []sample) bool {
	if len(a)+len(b) < 4 {
		return false
	}
	if len(a) == 0 {
		a, b = b, a
	}
	first, last := a[0], a[len(a)-1]
	if len(b) > 0 {
		if b[0].tick < first.tick {
			first = b[0]
		}
		if b[len(b)-1].tick > last.tick {
			last = b[len(b)-1]
		}
	}
	dt := last.tick - first.tick
	if dt <= 0 {
		return false
	}
	span := int(uint16(last.id - first.id)) // wraparound-safe forward delta
	velocity := float64(span) / float64(dt)
	const maxVelocity = 200 // routers increment far slower per tick
	if velocity > maxVelocity {
		return false
	}
	const tolerance = 24 // counter jitter from cross traffic
	for _, series := range [2][]sample{a, b} {
		for _, s := range series {
			predicted := velocity * float64(s.tick-first.tick)
			observed := float64(int(uint16(s.id - first.id)))
			diff := observed - predicted
			if diff < -tolerance || diff > tolerance {
				return false
			}
		}
	}
	return true
}

const fnvOffset = 14695981039346656037

// hashMix folds one 64-bit value into an FNV-1a state, low byte first.
func hashMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211
	}
	return h
}

// hashFinal decorrelates a folded state.
func hashFinal(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}
