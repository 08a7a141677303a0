package alias

import (
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

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
// keyed by address, one allocation and one sort per pair, groups sorted at
// the end.
func referenceResolve(p *Prober, candidates []netip.Addr) [][]netip.Addr {
	seen := make(map[netip.Addr]bool)
	var addrs []netip.Addr
	for _, a := range candidates {
		if !seen[a] {
			seen[a] = true
			if _, ok := p.Probe(a, 0); ok {
				addrs = append(addrs, a)
			}
		}
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Compare(addrs[j]) < 0 })
	series := make(map[netip.Addr][]sample, len(addrs))
	for round := 0; round < 5; round++ {
		for i, a := range addrs {
			tick := round*len(addrs)*2 + i*2
			if id, ok := p.Probe(a, tick); ok {
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
