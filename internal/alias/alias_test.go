package alias

import (
	"net/netip"
	"testing"

	"github.com/clasp-measurement/clasp/internal/topology"
)

func testSetup(t *testing.T) (*topology.Topology, *Prober) {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, NewProber(topo, 3)
}

// probe is one IP-ID probe to addr at virtual time tick.
func probe(p *Prober, addr netip.Addr, tick int) (uint16, bool) {
	c, ok := p.counterOf(addr)
	if !ok {
		return 0, false
	}
	return c.at(tick), true
}

func TestProbeRespondsForRouterInterfaces(t *testing.T) {
	topo, p := testSetup(t)
	l := topo.Links()[0]
	if _, ok := probe(p, l.FarIP, 0); !ok {
		t.Error("far IP did not respond to alias probe")
	}
	if _, ok := probe(p, netip.MustParseAddr("203.0.113.5"), 0); ok {
		t.Error("unknown address responded")
	}
}

func TestProbeCounterMonotonic(t *testing.T) {
	topo, p := testSetup(t)
	l := topo.Links()[0]
	prev := uint16(0)
	for tick := 0; tick < 50; tick += 5 {
		id, ok := probe(p, l.FarIP, tick)
		if !ok {
			t.Fatal("probe failed")
		}
		if tick > 0 {
			delta := uint16(id - prev)
			if delta == 0 || delta > 1000 {
				t.Errorf("tick %d: counter moved by %d", tick, delta)
			}
		}
		prev = id
	}
}

func TestAliasesShareCounter(t *testing.T) {
	topo, p := testSetup(t)
	// Find a router with multiple interfaces on interdomain links.
	var multi []netip.Addr
	for _, l := range topo.Links() {
		aliases := topo.RouterAliases(l.FarRouter)
		links := 0
		for _, a := range aliases {
			for _, m := range topo.Links() {
				if m.FarIP == a {
					links++
				}
			}
		}
		if links >= 2 {
			multi = aliases
			break
		}
	}
	if multi == nil {
		t.Skip("no multi-link router in small topology")
	}
	a1, _ := probe(p, multi[0], 10)
	a2, _ := probe(p, multi[1], 11)
	// Counter advanced by ~velocity between ticks 10 and 11.
	delta := uint16(a2 - a1)
	if delta > 200 {
		t.Errorf("same-router interfaces returned distant IDs: %d", delta)
	}
}

func TestResolveGroupsGroundTruth(t *testing.T) {
	topo, p := testSetup(t)
	// Pick one neighbor with several links and alias-resolve its far IPs.
	var nb topology.ASN
	for _, n := range topo.CloudNeighbors() {
		if len(topo.LinksOf(n)) >= 4 {
			nb = n
			break
		}
	}
	if nb == 0 {
		t.Skip("no neighbor with >= 4 links")
	}
	var candidates []netip.Addr
	truth := make(map[netip.Addr]topology.RouterID)
	for _, l := range topo.LinksOf(nb) {
		candidates = append(candidates, l.FarIP)
		truth[l.FarIP] = l.FarRouter
	}
	groups := p.Resolve(candidates)

	// Evaluate pairwise precision/recall against ground truth.
	sameGroup := func(a, b netip.Addr) bool {
		for _, g := range groups {
			ina, inb := false, false
			for _, ip := range g {
				if ip == a {
					ina = true
				}
				if ip == b {
					inb = true
				}
			}
			if ina || inb {
				return ina && inb
			}
		}
		return false
	}
	tp, fp, fn := 0, 0, 0
	for i := 0; i < len(candidates); i++ {
		for j := i + 1; j < len(candidates); j++ {
			same := truth[candidates[i]] == truth[candidates[j]]
			got := sameGroup(candidates[i], candidates[j])
			switch {
			case same && got:
				tp++
			case !same && got:
				fp++
			case same && !got:
				fn++
			}
		}
	}
	if tp+fn > 0 {
		recall := float64(tp) / float64(tp+fn)
		if recall < 0.9 {
			t.Errorf("alias recall %.2f (tp=%d fn=%d)", recall, tp, fn)
		}
	}
	if tp+fp > 0 {
		precision := float64(tp) / float64(tp+fp)
		if precision < 0.8 {
			t.Errorf("alias precision %.2f (tp=%d fp=%d)", precision, tp, fp)
		}
	}
}

func TestResolveAllNeighborsNoCrossRouterMerges(t *testing.T) {
	topo, p := testSetup(t)
	merged, total := 0, 0
	for _, nb := range topo.CloudNeighbors() {
		links := topo.LinksOf(nb)
		if len(links) < 2 {
			continue
		}
		var candidates []netip.Addr
		truth := make(map[netip.Addr]topology.RouterID)
		for _, l := range links {
			candidates = append(candidates, l.FarIP)
			truth[l.FarIP] = l.FarRouter
		}
		for _, g := range p.Resolve(candidates) {
			total++
			routers := make(map[topology.RouterID]bool)
			for _, ip := range g {
				routers[truth[ip]] = true
			}
			if len(routers) > 1 {
				merged++
			}
		}
	}
	if total == 0 {
		t.Skip("no resolvable neighbors")
	}
	if frac := float64(merged) / float64(total); frac > 0.1 {
		t.Errorf("%.0f%% of alias groups merged distinct routers", frac*100)
	}
}

func TestResolveHandlesUnresponsive(t *testing.T) {
	_, p := testSetup(t)
	groups := p.Resolve([]netip.Addr{
		netip.MustParseAddr("203.0.113.1"),
		netip.MustParseAddr("203.0.113.2"),
	})
	if len(groups) != 0 {
		t.Errorf("unresponsive candidates produced %d groups", len(groups))
	}
}

func TestResolveDeterministic(t *testing.T) {
	topo, p := testSetup(t)
	var candidates []netip.Addr
	for _, l := range topo.Links()[:12] {
		candidates = append(candidates, l.FarIP)
	}
	a := p.Resolve(candidates)
	b := p.Resolve(candidates)
	if len(a) != len(b) {
		t.Fatal("nondeterministic group count")
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("nondeterministic group size")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("nondeterministic group contents")
			}
		}
	}
}
