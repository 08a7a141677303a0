package alias

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

// referenceProbe is the IP-ID probe as it stood before counters were
// derived once per candidate: base, velocity and jitter each hashed from
// scratch on every probe.
func referenceProbe(p *Prober, addr netip.Addr, tick int) (uint16, bool) {
	r := p.topo.RouterOf(addr)
	if r < 0 {
		return 0, false
	}
	base := hashU64(p.seed, uint64(r), 0x1) % 40000
	velocity := 3 + hashU64(p.seed, uint64(r), 0x2)%40
	jitter := hashU64(p.seed, uint64(r), uint64(tick), 0x3) % 3
	return uint16(base + velocity*uint64(tick) + jitter), true
}

func hashU64(seed int64, keys ...uint64) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(seed))
	for _, k := range keys {
		mix(k)
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 31
	return h
}

// TestCounterMatchesReferenceProbe: a counter derived once reads, at every
// tick, the IP-ID the per-probe hashes give; unresponsive addresses have
// no counter.
func TestCounterMatchesReferenceProbe(t *testing.T) {
	topo, p := testSetup(t)
	addrs := []netip.Addr{netip.MustParseAddr("203.0.113.5")}
	for _, l := range topo.Links() {
		addrs = append(addrs, l.FarIP)
	}
	for _, a := range addrs {
		c, ok := p.counterOf(a)
		for tick := 0; tick < 64; tick++ {
			want, wantOK := referenceProbe(p, a, tick)
			if ok != wantOK || (ok && c.at(tick) != want) {
				t.Fatalf("%v tick %d: counter (%v, %v), reference (%v, %v)", a, tick, c.at(tick), ok, want, wantOK)
			}
		}
	}
}

// referenceSharedCounter is the pairwise test as it stood before the
// per-pair allocation went: the two series concatenated into a fresh slice
// and sorted by tick.
func referenceSharedCounter(samples []sample) bool {
	if len(samples) < 4 {
		return false
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].tick < samples[j].tick })
	first, last := samples[0], samples[len(samples)-1]
	dt := last.tick - first.tick
	if dt <= 0 {
		return false
	}
	span := int(uint16(last.id - first.id))
	velocity := float64(span) / float64(dt)
	if velocity > 200 {
		return false
	}
	for _, s := range samples {
		predicted := velocity * float64(s.tick-first.tick)
		observed := float64(int(uint16(s.id - first.id)))
		if diff := observed - predicted; diff < -24 || diff > 24 {
			return false
		}
	}
	return true
}

// referenceResolve is Resolve as it stood before: series and union-find
// keyed by address, every probe hashed from scratch, one allocation and one
// sort per pair, groups sorted at the end.
func referenceResolve(p *Prober, candidates []netip.Addr) [][]netip.Addr {
	seen := make(map[netip.Addr]bool)
	var addrs []netip.Addr
	for _, a := range candidates {
		if !seen[a] {
			seen[a] = true
			if _, ok := referenceProbe(p, a, 0); ok {
				addrs = append(addrs, a)
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	series := make(map[netip.Addr][]sample, len(addrs))
	for round := 0; round < 5; round++ {
		for i, a := range addrs {
			tick := round*len(addrs)*2 + i*2
			if id, ok := referenceProbe(p, a, tick); ok {
				series[a] = append(series[a], sample{tick: tick, id: id})
			}
		}
	}
	parent := make(map[netip.Addr]netip.Addr, len(addrs))
	var find func(a netip.Addr) netip.Addr
	find = func(a netip.Addr) netip.Addr {
		if parent[a] != a {
			parent[a] = find(parent[a])
		}
		return parent[a]
	}
	for _, a := range addrs {
		parent[a] = a
	}
	for i := 0; i < len(addrs); i++ {
		for j := i + 1; j < len(addrs); j++ {
			if referenceSharedCounter(append(append([]sample(nil), series[addrs[i]]...), series[addrs[j]]...)) {
				if ra, rb := find(addrs[i]), find(addrs[j]); ra != rb {
					parent[rb] = ra
				}
			}
		}
	}
	groups := make(map[netip.Addr][]netip.Addr)
	for _, a := range addrs {
		r := find(a)
		groups[r] = append(groups[r], a)
	}
	out := make([][]netip.Addr, 0, len(groups))
	for _, g := range groups {
		sort.Slice(g, func(i, j int) bool { return g[i].Compare(g[j]) < 0 })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0].Compare(out[j][0]) < 0 })
	return out
}

// TestResolveMatchesReference: per neighbor — the way bdrmap calls it — and
// over every far-side interface at once, duplicates and an unresponsive
// address included, Resolve returns the reference's alias sets exactly.
func TestResolveMatchesReference(t *testing.T) {
	topo, p := testSetup(t)
	byNeighbor := make(map[uint32][]netip.Addr)
	all := []netip.Addr{netip.MustParseAddr("203.0.113.5")}
	for _, l := range topo.Links() {
		byNeighbor[uint32(l.Neighbor)] = append(byNeighbor[uint32(l.Neighbor)], l.FarIP)
		all = append(all, l.FarIP, l.FarIP)
	}
	sets := [][]netip.Addr{nil, all[:1], all[:300]}
	for _, ips := range byNeighbor {
		sets = append(sets, ips)
	}
	multi := 0
	for _, candidates := range sets {
		got, want := p.Resolve(candidates), referenceResolve(p, candidates)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d candidates: Resolve = %v, reference %v", len(candidates), got, want)
		}
		for _, g := range got {
			if len(g) > 1 {
				multi++
			}
		}
	}
	if multi == 0 {
		t.Fatal("no multi-interface router among the candidates: the test compares nothing")
	}
}
