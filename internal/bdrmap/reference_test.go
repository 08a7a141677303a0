package bdrmap

import (
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

// referenceLinks is the link aggregation as it stood: a map of per-owner
// count maps keyed by far IP, links in map order.
func referenceLinks(cloudASN ASN, obs []borderObs) []Link {
	type agg struct {
		owners   map[ASN]int
		viaNext  int
		evidence int
	}
	byFar := make(map[netip.Addr]*agg)
	for _, o := range obs {
		a := byFar[o.farIP]
		if a == nil {
			a = &agg{owners: make(map[ASN]int)}
			byFar[o.farIP] = a
		}
		a.owners[o.owner]++
		a.evidence++
		if o.viaNext {
			a.viaNext++
		}
	}
	var links []Link
	for far, a := range byFar {
		var best ASN
		bestN := -1
		for owner, n := range a.owners {
			if n > bestN || (n == bestN && owner < best) {
				best, bestN = owner, n
			}
		}
		if best == 0 || best == cloudASN {
			continue
		}
		links = append(links, Link{
			FarIP:      far,
			Neighbor:   best,
			Evidence:   a.evidence,
			ViaNextHop: a.viaNext > a.evidence/2,
		})
	}
	return links
}

// referenceInfer is Infer as it stood before the observations were sorted,
// with the router IDs resolved eagerly: referenceLinks' maps, then a map of
// far IPs per neighbor and a map from far IP to link for the router IDs
// (each link's ID, -1 without one), and a final sort by far IP.
func referenceInfer(m *Mapper, traces []traceroute.Result, parallelism int) ([]Link, []int, error) {
	if m.table == nil {
		return nil, nil, fmt.Errorf("bdrmap: nil prefix table")
	}
	var obs []borderObs
	for ti := range traces {
		if o, ok := m.findBorder(&traces[ti]); ok {
			obs = append(obs, o)
		}
	}
	type routed struct {
		Link
		router int
	}
	var links []routed
	for _, l := range referenceLinks(m.cloudASN, obs) {
		links = append(links, routed{l, -1})
	}
	if m.resolver != nil {
		byNeighbor := make(map[ASN][]netip.Addr)
		idx := make(map[netip.Addr]*routed)
		for i := range links {
			byNeighbor[links[i].Neighbor] = append(byNeighbor[links[i].Neighbor], links[i].FarIP)
			idx[links[i].FarIP] = &links[i]
		}
		var neighbors []ASN
		for nb := range byNeighbor {
			neighbors = append(neighbors, nb)
		}
		sort.Slice(neighbors, func(i, j int) bool { return neighbors[i] < neighbors[j] })
		groups := make([][][]netip.Addr, len(neighbors))
		analysis.ParallelFor(parallelism, len(neighbors), func(i int) {
			groups[i] = m.resolver.Resolve(byNeighbor[neighbors[i]])
		})
		routerID := 0
		for _, gs := range groups {
			for _, group := range gs {
				for _, ip := range group {
					if l := idx[ip]; l != nil {
						l.router = routerID
					}
				}
				routerID++
			}
		}
	}
	sort.Slice(links, func(i, j int) bool { return links[i].FarIP.Compare(links[j].FarIP) < 0 })
	var out []Link
	var routers []int
	for _, l := range links {
		out, routers = append(out, l.Link), append(routers, l.router)
	}
	return out, routers, nil
}

// hopsTo is a traceroute whose hops answer from the given addresses in
// order.
func hopsTo(addrs ...netip.Addr) traceroute.Result {
	var tr traceroute.Result
	for _, a := range addrs {
		tr.Hops = append(tr.Hops, traceroute.HopReply{IP: a, Responded: true})
	}
	return tr
}

// TestInferMatchesReference: on shuffled pilot traces with far IPs seen
// more than once, on crafted traces where next-hop owners tie and where no
// border shows, with and without a resolver, and at parallelism 1, 2 and 4,
// Infer returns the reference's links, and Routers its router IDs,
// exactly; on observations with
// via-next at exactly half of a far IP's sightings, so does the
// aggregation.
func TestInferMatchesReference(t *testing.T) {
	f := setup(t)
	pilot := f.pilotTraces(t, 400)
	traces := append(append(pilot[:0:0], pilot...), pilot[:150]...)
	rand.New(rand.NewSource(5)).Shuffle(len(traces), func(i, j int) { traces[i], traces[j] = traces[j], traces[i] })

	// A far IP numbered from the cloud's unannounced space is attributed to
	// the next hop, so the next hops pick its owner: two neighbors tie.
	cloudHop := netip.MustParseAddr("15.0.0.1")
	var farCloud netip.Addr
	owners := map[ASN]netip.Addr{} // neighbor AS -> an address inside it
	for _, l := range f.topo.Links() {
		if l.FarIPFromCloudSpace && !farCloud.IsValid() {
			farCloud = l.FarIP
		}
		if _, ok := owners[l.Neighbor]; !ok && !l.FarIPFromCloudSpace && len(owners) < 3 {
			owners[l.Neighbor] = l.FarIP
		}
	}
	if !farCloud.IsValid() || len(owners) < 3 {
		t.Fatal("topology lacks a cloud-numbered far IP or three neighbors")
	}
	var nbs []ASN
	for nb := range owners {
		nbs = append(nbs, nb)
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i] > nbs[j] }) // the tie's winner, nbs[1], comes second
	crafted := []traceroute.Result{
		hopsTo(cloudHop, farCloud, owners[nbs[0]]),
		hopsTo(cloudHop, farCloud, owners[nbs[1]]),
		hopsTo(cloudHop, farCloud, owners[nbs[1]]),
		hopsTo(cloudHop, farCloud, owners[nbs[0]]),
		hopsTo(cloudHop, farCloud, owners[nbs[2]]),
		hopsTo(cloudHop, owners[nbs[2]]),
		hopsTo(cloudHop, owners[nbs[2]], owners[nbs[0]]),
		// No border: nothing after the cloud, nothing of the cloud, or a
		// cloud-numbered far IP with no neighbor after it.
		hopsTo(cloudHop),
		hopsTo(owners[nbs[0]]),
		hopsTo(cloudHop, farCloud),
		{},
	}
	traces = append(traces, crafted...)

	cases := map[string][]traceroute.Result{"pilot": pilot, "shuffled": traces, "crafted": crafted}
	for _, resolver := range []*alias.Prober{alias.NewProber(f.topo, 21), nil} {
		m := FromTopology(f.topo, resolver)
		for name, trs := range cases {
			want, wantRouters, err := referenceInfer(m, trs, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{1, 2, 4} {
				got, err := m.Infer(trs, par)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Links, want) {
					t.Fatalf("%s, resolver %v, parallelism %d: Infer differs from the reference:\n got %v\nwant %v",
						name, resolver != nil, par, got.Links, want)
				}
				if routers := got.Routers(); !slices.Equal(routers, wantRouters) {
					t.Fatalf("%s, resolver %v, parallelism %d: Routers differ from the reference:\n got %v\nwant %v",
						name, resolver != nil, par, routers, wantRouters)
				}
			}
		}
	}
	if res, _ := FromTopology(f.topo, nil).Infer(crafted, 1); len(res.Links) != 2 || res.Links[0].Evidence+res.Links[1].Evidence != 7 {
		t.Fatalf("crafted traces gave %v, want two links from seven crossings", res.Links)
	}

	// A far IP is numbered from the cloud's space for every trace or for
	// none, so traces give via-next on all sightings or on none; the
	// aggregation is held on half, and on one over half, directly.
	a, b := netip.MustParseAddr("20.1.254.1"), netip.MustParseAddr("20.1.254.5")
	for _, obs := range [][]borderObs{
		{{b, 9, true}, {a, 7, true}, {a, 9, false}, {a, 9, true}, {a, 7, false}},
		{{a, 9, true}, {b, 9, true}, {b, 7, false}, {a, 7, true}, {a, 7, false}, {b, 3, true}},
	} {
		want := referenceLinks(f.topo.Cloud.ASN, obs)
		sort.Slice(want, func(i, j int) bool { return want[i].FarIP.Compare(want[j].FarIP) < 0 })
		if got := aggregate(obs); !reflect.DeepEqual(got, want) {
			t.Fatalf("aggregate = %v, reference %v", got, want)
		}
	}
}
