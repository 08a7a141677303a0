// Package bdrmap infers the interdomain links between the cloud network and
// its neighbors from traceroute data, prefix-to-AS mappings and alias sets,
// following the structure of bdrmap (Luckie et al., IMC 2016): find the
// cloud's border in each traceroute, identify the far-side interface, infer
// its owning AS (directly when the interface is numbered from the neighbor's
// space, via next-hop heuristics when it is numbered from the cloud's own
// space), and merge interfaces into routers using alias resolution.
package bdrmap

import (
	"fmt"
	"net/netip"
	"sort"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/pfx2as"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

// ASN aliases the pfx2as AS number type.
type ASN = pfx2as.ASN

// Link is one inferred interdomain link, identified by its far-side
// interface address.
type Link struct {
	FarIP    netip.Addr
	Neighbor ASN // inferred owner of the far side
	// Router groups far IPs resolved to one physical router; -1 when
	// alias resolution found nothing.
	Router int
	// Evidence counts the traceroutes that crossed this link.
	Evidence int
	// ViaNextHop marks links whose owner was inferred from subsequent
	// hops because the far interface is numbered from the cloud's space.
	ViaNextHop bool
}

// Result is a completed border inference.
type Result struct {
	Links []Link
}

// LinkCount returns the number of inferred links.
func (r *Result) LinkCount() int { return len(r.Links) }

// Mapper runs border inference for one cloud region.
type Mapper struct {
	cloudASN ASN
	table    *pfx2as.Table
	resolver *alias.Prober
}

// New creates a mapper. resolver may be nil to skip alias grouping.
func New(cloudASN ASN, table *pfx2as.Table, resolver *alias.Prober) *Mapper {
	return &Mapper{cloudASN: cloudASN, table: table, resolver: resolver}
}

// FromTopology builds a mapper wired to a generated topology.
func FromTopology(t *topology.Topology, resolver *alias.Prober) *Mapper {
	return New(t.Cloud.ASN, t.PrefixTable(), resolver)
}

// borderObs is one observation of a candidate border crossing.
type borderObs struct {
	farIP   netip.Addr
	owner   ASN
	viaNext bool
}

// Infer consumes traceroutes from VMs in one region and returns the
// inferred interdomain links. Alias resolution runs on up to parallelism
// workers (0 or 1: inline); the result is identical at any value.
func (m *Mapper) Infer(traces []traceroute.Result, parallelism int) (*Result, error) {
	if m.table == nil {
		return nil, fmt.Errorf("bdrmap: nil prefix table")
	}
	type agg struct {
		owners   map[ASN]int
		viaNext  int
		evidence int
	}
	byFar := make(map[netip.Addr]*agg)

	for ti := range traces {
		obs, ok := m.findBorder(&traces[ti])
		if !ok {
			continue
		}
		a := byFar[obs.farIP]
		if a == nil {
			a = &agg{owners: make(map[ASN]int)}
			byFar[obs.farIP] = a
		}
		a.owners[obs.owner]++
		a.evidence++
		if obs.viaNext {
			a.viaNext++
		}
	}

	// Build links with majority-vote owners.
	var links []Link
	for far, a := range byFar {
		var best ASN
		bestN := -1
		for owner, n := range a.owners {
			if n > bestN || (n == bestN && owner < best) {
				best, bestN = owner, n
			}
		}
		if best == 0 || best == m.cloudASN {
			continue // could not attribute to a neighbor
		}
		links = append(links, Link{
			FarIP:      far,
			Neighbor:   best,
			Router:     -1,
			Evidence:   a.evidence,
			ViaNextHop: a.viaNext > a.evidence/2,
		})
	}

	// Alias-resolve far interfaces per neighbor to group them into
	// routers (far IPs of one router belong to the same neighbor). The
	// neighbors resolve independently, on up to parallelism workers;
	// router IDs are assigned afterwards in neighbor order.
	if m.resolver != nil {
		byNeighbor := make(map[ASN][]netip.Addr)
		idx := make(map[netip.Addr]*Link)
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
						l.Router = routerID
					}
				}
				routerID++
			}
		}
	}

	sort.Slice(links, func(i, j int) bool { return links[i].FarIP.Compare(links[j].FarIP) < 0 })
	return &Result{Links: links}, nil
}

// findBorder locates the cloud border crossing in one traceroute: the last
// responding hop owned by the cloud followed by the first responding hop
// beyond it.
func (m *Mapper) findBorder(tr *traceroute.Result) (borderObs, bool) {
	hops := tr.Hops
	lastCloud := -1
	for i, h := range hops {
		if !h.Responded {
			continue
		}
		if m.isCloudAddr(h.IP) {
			lastCloud = i
		}
	}
	if lastCloud < 0 {
		return borderObs{}, false
	}
	// Far side: first responding hop after the cloud border whose address
	// is NOT a later cloud hop (it may still be numbered from cloud space).
	farIdx := -1
	for i := lastCloud + 1; i < len(hops); i++ {
		if hops[i].Responded {
			farIdx = i
			break
		}
	}
	if farIdx < 0 {
		return borderObs{}, false
	}
	far := hops[farIdx].IP
	owner := m.table.LookupASN(far)
	viaNext := false
	if owner == 0 || owner == m.cloudASN {
		// The far interface is numbered from the cloud's own space (or
		// unrouted link space): attribute it to the first subsequent hop
		// that resolves outside the cloud — bdrmap's next-hop heuristic.
		viaNext = true
		owner = 0
		for i := farIdx + 1; i < len(hops); i++ {
			if !hops[i].Responded {
				continue
			}
			if o := m.table.LookupASN(hops[i].IP); o != 0 && o != m.cloudASN {
				owner = o
				break
			}
		}
		if owner == 0 {
			return borderObs{}, false
		}
	}
	return borderObs{farIP: far, owner: owner, viaNext: viaNext}, true
}

// isCloudAddr reports whether an address resolves to the cloud's announced
// space. Unannounced interconnect /30s deliberately do not count: they are
// border candidates, not interior hops.
func (m *Mapper) isCloudAddr(ip netip.Addr) bool {
	return m.table.LookupASN(ip) == m.cloudASN
}
