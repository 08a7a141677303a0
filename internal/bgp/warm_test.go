package bgp

import (
	"sync"
	"testing"
)

// TestWarmMatchesLazy asserts that Warm is a pure cache fill: every path a
// warmed router serves is identical to what a lazily-populated router
// computes for the same destination set.
func TestWarmMatchesLazy(t *testing.T) {
	topo := testTopo(t)
	lazy := NewRouter(topo)
	warmed := NewRouter(topo)

	var dsts []ASN
	for _, srv := range topo.Servers() {
		dsts = append(dsts, srv.ASN)
	}
	dsts = append(dsts, topo.Cloud.ASN)
	warmed.Warm(dsts, 8)

	cloud := topo.Cloud.ASN
	for _, srv := range topo.Servers() {
		lp, lok := lazy.Path(cloud, srv.ASN)
		wp, wok := warmed.Path(cloud, srv.ASN)
		if lok != wok || len(lp) != len(wp) {
			t.Fatalf("AS%d: warm path differs: lazy %v (%v) vs warm %v (%v)", srv.ASN, lp, lok, wp, wok)
		}
		for i := range lp {
			if lp[i] != wp[i] {
				t.Fatalf("AS%d: warm path differs at hop %d: %v vs %v", srv.ASN, i, lp, wp)
			}
		}
		rl, rlok := lazy.Path(srv.ASN, cloud)
		rw, rwok := warmed.Path(srv.ASN, cloud)
		if rlok != rwok || len(rl) != len(rw) {
			t.Fatalf("AS%d: reverse warm path differs", srv.ASN)
		}
		for i := range rl {
			if rl[i] != rw[i] {
				t.Fatalf("AS%d: reverse warm path differs at hop %d", srv.ASN, i)
			}
		}
	}
}

// TestConcurrentTreeToAndWarm hammers a cold router with concurrent TreeTo,
// Path(cloud, dst) and Warm calls over overlapping destinations; run under
// -race this pins the lock-free caches. All goroutines must observe the
// same tree pointer and the same cloud-route slice per destination (each is
// computed exactly once).
func TestConcurrentTreeToAndWarm(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)

	servers := topo.Servers()
	if len(servers) > 16 {
		servers = servers[:16]
	}
	dsts := []ASN{topo.Cloud.ASN}
	for _, srv := range servers {
		dsts = append(dsts, srv.ASN)
	}

	const goroutines = 8
	got := make([][]*Tree, goroutines)
	routes := make([][]*ASN, goroutines)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			if gi%2 == 0 {
				r.Warm(dsts, 4)
			}
			trees := make([]*Tree, len(dsts))
			firsts := make([]*ASN, len(dsts))
			for i, d := range dsts {
				p, ok := r.Path(topo.Cloud.ASN, d)
				if !ok {
					t.Errorf("no route from the cloud to AS%d", d)
					return
				}
				firsts[i] = &p[0]
				trees[i] = r.TreeTo(d)
			}
			got[gi], routes[gi] = trees, firsts
		}(gi)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	for gi := 1; gi < goroutines; gi++ {
		for i := range dsts {
			if got[gi][i] != got[0][i] {
				t.Fatalf("goroutine %d saw a different tree for AS%d", gi, dsts[i])
			}
			if i > 0 && routes[gi][i] != routes[0][i] {
				t.Fatalf("goroutine %d saw a different cloud route to AS%d", gi, dsts[i])
			}
		}
	}
}

// TestTreeUnknownDestination pins the dense tree's behaviour for a
// destination outside the topology.
func TestTreeUnknownDestination(t *testing.T) {
	topo := testTopo(t)
	r := NewRouter(topo)
	const bogus = ASN(4200000000)
	if _, ok := r.Path(topo.Cloud.ASN, bogus); ok {
		t.Fatal("expected no path to an unknown ASN")
	}
	if p, ok := r.Path(bogus, bogus); !ok || len(p) != 1 {
		t.Fatalf("src==dst must short-circuit even when unknown, got %v %v", p, ok)
	}
}
