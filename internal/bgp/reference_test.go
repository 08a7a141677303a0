package bgp

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// referenceCompute is compute as it stood with phase 3 sorting each
// distance bucket by ASN before relaxing it.
func referenceCompute(g *denseGraph, dst ASN) *Tree {
	tr := &Tree{dst: dst, dstIdx: -1, g: g}
	di, ok := g.index[dst]
	if !ok {
		return tr
	}
	tr.dstIdx = di
	for c := 0; c < 3; c++ {
		tr.dist[c] = make([]int32, g.n)
		tr.next[c] = make([]int32, g.n)
		for i := range tr.dist[c] {
			tr.dist[c][i], tr.next[c][i] = -1, -1
		}
	}
	dist, next := &tr.dist, &tr.next

	type qe struct {
		idx  int32
		dist int32
	}
	queue := []qe{{di, 0}}
	dist[classCustomer][di] = 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if dist[classCustomer][cur.idx] != cur.dist {
			continue
		}
		curASN := g.asns[cur.idx]
		for _, p := range g.providers[cur.idx] {
			nd := cur.dist + 1
			d := dist[classCustomer][p]
			if d < 0 || nd < d ||
				(nd == d && curASN < g.asns[next[classCustomer][p]]) {
				if d < 0 || nd < d {
					queue = append(queue, qe{p, nd})
				}
				dist[classCustomer][p] = nd
				next[classCustomer][p] = cur.idx
			}
		}
	}

	for i := int32(0); i < int32(g.n); i++ {
		d := dist[classCustomer][i]
		if d < 0 {
			continue
		}
		iASN := g.asns[i]
		for _, p := range g.peers[i] {
			nd := d + 1
			cur := dist[classPeer][p]
			if cur < 0 || nd < cur ||
				(nd == cur && iASN < g.asns[next[classPeer][p]]) {
				dist[classPeer][p] = nd
				next[classPeer][p] = i
			}
		}
	}

	best := func(i int32) (int32, bool) {
		for c := 0; c < 3; c++ {
			if d := dist[c][i]; d >= 0 {
				return d, true
			}
		}
		return 0, false
	}
	buckets := make([][]int32, 1)
	push := func(d int32, i int32) {
		for len(buckets) <= int(d) {
			buckets = append(buckets, nil)
		}
		buckets[d] = append(buckets[d], i)
	}
	for i := int32(0); i < int32(g.n); i++ {
		if d, ok := best(i); ok {
			push(d, i)
		}
	}
	for d := int32(0); int(d) < len(buckets); d++ {
		bs := buckets[d]
		sort.Slice(bs, func(i, j int) bool { return g.asns[bs[i]] < g.asns[bs[j]] })
		for _, u := range bs {
			bd, ok := best(u)
			if !ok || bd != d {
				continue
			}
			uASN := g.asns[u]
			for _, c := range g.customers[u] {
				if dist[classCustomer][c] >= 0 || dist[classPeer][c] >= 0 {
					continue
				}
				nd := d + 1
				cur := dist[classProvider][c]
				if cur < 0 || nd < cur ||
					(nd == cur && uASN < g.asns[next[classProvider][c]]) {
					if cur < 0 || nd < cur {
						push(nd, c)
					}
					dist[classProvider][c] = nd
					next[classProvider][c] = u
				}
			}
		}
	}
	return tr
}

// referenceNearestVisibleLink is nearestVisibleLink's miss as it stood: a
// scan of every link of the neighbor.
func referenceNearestVisibleLink(t *topology.Topology, region string, neighbor ASN, anchorCity string) (*topology.Interconnect, error) {
	anchor, ok := t.CityCoord(anchorCity)
	if !ok {
		return nil, fmt.Errorf("bgp: unknown city %q", anchorCity)
	}
	var best *topology.Interconnect
	bestD := 0.0
	for _, l := range t.LinksOf(neighbor) {
		if !t.IsVisible(region, l.ID) || !l.CoordOK {
			continue
		}
		d := geo.DistanceKm(anchor, l.Coord)
		if best == nil || d < bestD || (d == bestD && l.ID < best.ID) {
			best, bestD = l, d
		}
	}
	if best == nil {
		return nil, fmt.Errorf("bgp: neighbor AS%d has no visible link in %s", neighbor, region)
	}
	return best, nil
}

type oracleShape struct {
	seed  int64
	scale float64
}

// oracleTopos builds one topology per shape.
func oracleTopos(t *testing.T, shapes ...oracleShape) map[string]*topology.Topology {
	t.Helper()
	out := make(map[string]*topology.Topology)
	for _, sh := range shapes {
		cfg := topology.PaperScaleConfig()
		cfg.Seed, cfg.Scale = sh.seed, sh.scale
		topo, err := topology.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("seed%d/scale%g", sh.seed, sh.scale)] = topo
	}
	return out
}

// TestTreesMatchReference: for every destination AS, every class's
// distances and next hops equal the bucket-sorted reference's, on the
// paper-scale topology and a small one, at two seeds.
func TestTreesMatchReference(t *testing.T) {
	for name, topo := range oracleTopos(t, oracleShape{1, 1.0}, oracleShape{1, 0.1}, oracleShape{7, 1.0}, oracleShape{7, 0.1}) {
		r := NewRouter(topo)
		for _, a := range topo.ASes() {
			got, want := r.TreeTo(a.ASN), referenceCompute(r.dense, a.ASN)
			if !reflect.DeepEqual(got.dist, want.dist) || !reflect.DeepEqual(got.next, want.next) {
				t.Fatalf("%s: tree to AS%d differs from the reference", name, a.ASN)
			}
		}
	}
}

// TestLinkChoiceMatchesReference: for every region, cloud neighbor and
// anchor city (every server, vantage point and region city), the candidate
// table picks the link the full per-link scan picks, or fails the same way:
// on the paper-scale topology, and on a small one at another seed.
func TestLinkChoiceMatchesReference(t *testing.T) {
	for name, topo := range oracleTopos(t, oracleShape{1, 1.0}, oracleShape{7, 0.1}) {
		cities := map[string]bool{"Atlantis": true} // unknown to the geo DB
		for _, s := range topo.Servers() {
			cities[s.City] = true
		}
		for _, vp := range topo.EdgeVPs() {
			cities[vp.City] = true
		}
		for _, reg := range topo.Regions {
			cities[reg.City] = true
		}
		neighbors := append(topo.CloudNeighbors(), topo.Cloud.ASN) // the cloud has no links
		regions := append(slices.Clone(topo.Regions), topology.Region{Name: "nowhere"})
		pairs, failed := 0, 0
		for _, reg := range regions {
			r := NewRouter(topo) // a fresh link cache per region
			for _, nb := range neighbors {
				for city := range cities {
					got, gotErr := r.nearestVisibleLink(reg.Name, nb, city)
					want, wantErr := referenceNearestVisibleLink(topo, reg.Name, nb, city)
					if got != want || !sameError(gotErr, wantErr) {
						t.Fatalf("%s: %s AS%d %s: got %v (%v), reference %v (%v)",
							name, reg.Name, nb, city, got, gotErr, want, wantErr)
					}
					pairs++
					if gotErr != nil {
						failed++
					}
				}
			}
		}
		if failed == 0 || failed == pairs {
			t.Fatalf("%s: %d of %d pairs failed: the error path or the pick is untested", name, failed, pairs)
		}
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return errors.Is(a, b)
	}
	return a.Error() == b.Error()
}
