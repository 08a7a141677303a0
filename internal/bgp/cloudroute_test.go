package bgp

import (
	"slices"
	"testing"
)

// handGraph is a hand-built AS graph: provider->customer and peer edges.
type handGraph struct {
	providers, customers, peers map[ASN][]ASN
}

func newHandGraph() *handGraph {
	return &handGraph{providers: map[ASN][]ASN{}, customers: map[ASN][]ASN{}, peers: map[ASN][]ASN{}}
}

func (h *handGraph) p2c(p, c ASN) *handGraph {
	h.providers[c] = append(h.providers[c], p)
	h.customers[p] = append(h.customers[p], c)
	return h
}

func (h *handGraph) p2p(a, b ASN) *handGraph {
	h.peers[a] = append(h.peers[a], b)
	h.peers[b] = append(h.peers[b], a)
	return h
}

func (h *handGraph) Providers(a ASN) []ASN { return h.providers[a] }
func (h *handGraph) Customers(a ASN) []ASN { return h.customers[a] }
func (h *handGraph) Peers(a ASN) []ASN     { return h.peers[a] }

// treeCount is the number of trees r has built or is building.
func treeCount(r *Router) int {
	n := 0
	r.trees.Range(func(any, any) bool { n++; return true })
	return n
}

// checkCloudRoute holds r's cloud route to dst to the full tree's and the
// reference tree's path from the cloud.
func checkCloudRoute(t *testing.T, name string, r *Router, trees *Router, dst ASN) []ASN {
	t.Helper()
	cloud := r.dense.asns[r.cloud]
	got, ok := r.Path(cloud, dst)
	want, wantOK := trees.TreeTo(dst).Path(cloud)
	ref, refOK := referenceCompute(trees.dense, dst).Path(cloud)
	if ok != wantOK || !slices.Equal(got, want) || ok != refOK || !slices.Equal(got, ref) {
		t.Fatalf("%s: cloud route to AS%d = %v (%v), tree %v (%v), reference %v (%v)",
			name, dst, got, ok, want, wantOK, ref, refOK)
	}
	if again, _ := r.Path(cloud, dst); len(got) > 0 && &again[0] != &got[0] {
		t.Fatalf("%s: the cloud route to AS%d was not cached", name, dst)
	}
	return got
}

// TestCloudRoutesMatchTrees: the cloud's route to every destination AS,
// computed from the destination's provider cone, is the full tree's path
// from the cloud — at paper scale and at scale 0.25, two seeds, with no
// tree built — and on hand-built graphs the customer route, the lowest-ASN
// peer among equals, the provider-route fallback, an unknown destination
// and the cloud itself come out as the tree has them.
func TestCloudRoutesMatchTrees(t *testing.T) {
	for name, topo := range oracleTopos(t, oracleShape{1, 1.0}, oracleShape{1, 0.25}, oracleShape{2, 1.0}, oracleShape{2, 0.25}) {
		r, trees := NewRouter(topo), NewRouter(topo)
		peer := 0
		for _, a := range topo.ASes() {
			if a.ASN == topo.Cloud.ASN {
				continue
			}
			if p := checkCloudRoute(t, name, r, trees, a.ASN); len(p) > 2 {
				peer++
			}
		}
		if n := treeCount(r); n != 0 {
			t.Errorf("%s: the cloud routes built %d trees, want 0", name, n)
		}
		if peer == 0 {
			t.Fatalf("%s: every route is one hop: the cone walk is untested", name)
		}
	}

	const cloud = ASN(100)
	hand := []struct {
		name   string
		asns   []ASN
		g      *handGraph
		dst    ASN
		want   []ASN
		filled int // trees the cloud route builds
	}{
		{
			// The customer route is longer than the peer route via 2,
			// and still wins.
			name: "customer route",
			asns: []ASN{1, 2, 10, 11, cloud},
			g:    newHandGraph().p2c(cloud, 10).p2c(10, 11).p2c(11, 1).p2c(2, 1).p2p(cloud, 2),
			dst:  1, want: []ASN{cloud, 10, 11, 1},
		},
		{
			// 30 comes first in index order; the lower ASN wins.
			name: "equal-distance peers",
			asns: []ASN{1, 30, 20, 40, cloud},
			g:    newHandGraph().p2c(30, 1).p2c(20, 1).p2c(40, 30).p2p(cloud, 30).p2p(cloud, 20).p2p(cloud, 40),
			dst:  1, want: []ASN{cloud, 20, 1},
		},
		{
			name: "shorter peer beats lower ASN",
			asns: []ASN{1, 5, 7, 9, cloud},
			g:    newHandGraph().p2c(9, 1).p2c(7, 9).p2c(5, 7).p2p(cloud, 5).p2p(cloud, 9),
			dst:  1, want: []ASN{cloud, 9, 1},
		},
		{
			name: "provider route only",
			asns: []ASN{1, 500, cloud},
			g:    newHandGraph().p2c(500, 1).p2c(500, cloud),
			dst:  1, want: []ASN{cloud, 500, 1}, filled: 1,
		},
		{
			name: "no route",
			asns: []ASN{1, 2, cloud},
			g:    newHandGraph().p2c(2, 1),
			dst:  1, filled: 1,
		},
		{
			name: "direct peer",
			asns: []ASN{1, cloud},
			g:    newHandGraph().p2p(cloud, 1),
			dst:  1, want: []ASN{cloud, 1},
		},
	}
	for _, c := range hand {
		g := buildDense(c.asns, c.g)
		r, trees := newRouter(g, cloud), newRouter(g, cloud)
		got := checkCloudRoute(t, c.name, r, trees, c.dst)
		if !slices.Equal(got, c.want) {
			t.Errorf("%s: cloud route %v, want %v", c.name, got, c.want)
		}
		if n := treeCount(r); n != c.filled {
			t.Errorf("%s: the cloud route built %d trees, want %d", c.name, n, c.filled)
		}
		if p, ok := r.Path(cloud, 4200000000); ok || p != nil {
			t.Errorf("%s: route to an unknown AS: %v %v", c.name, p, ok)
		}
		if p, ok := r.Path(cloud, cloud); !ok || !slices.Equal(p, []ASN{cloud}) {
			t.Errorf("%s: route to the cloud itself: %v %v", c.name, p, ok)
		}
	}
}
