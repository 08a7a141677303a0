// Package bdrmap infers the interdomain links between the cloud network and
// its neighbors from traceroute data, prefix-to-AS mappings and alias sets,
// following the structure of bdrmap (Luckie et al., IMC 2016): find the
// cloud's border in each traceroute, identify the far-side interface, infer
// its owning AS (directly when the interface is numbered from the neighbor's
// space, via next-hop heuristics when it is numbered from the cloud's own
// space), and merge interfaces into routers using alias resolution.
package bdrmap

import (
	"cmp"
	"fmt"
	"net/netip"
	"slices"
	"sync"

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
	// Evidence counts the traceroutes that crossed this link.
	Evidence int
	// ViaNextHop marks links whose owner was inferred from subsequent
	// hops because the far interface is numbered from the cloud's space.
	ViaNextHop bool
}

// Result is a completed border inference. Its alias sets are resolved on
// the first call to Routers; the links must not be changed before it.
type Result struct {
	Links []Link

	mapper      *Mapper
	parallelism int // Infer's
	routersOnce sync.Once
	routers     []int
}

// Routers returns each link's router ID, index-aligned with Links: far IPs
// resolved to one physical router share an ID, numbered from 0 in neighbor
// order, then in alias.Resolve's order; -1 where alias resolution found
// nothing, and for every link when the mapper has no resolver. The first
// call resolves the aliases on as many workers as Infer was given; the
// result is shared and must not be modified. Safe for concurrent use.
func (r *Result) Routers() []int {
	r.routersOnce.Do(func() {
		r.routers = make([]int, len(r.Links))
		for i := range r.routers {
			r.routers[i] = -1
		}
		if r.mapper.resolver != nil {
			r.mapper.groupRouters(r.Links, r.routers, r.parallelism)
		}
	})
	return r.routers
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
// inferred interdomain links in far-IP order. Alias resolution waits for
// the first Result.Routers call and runs on up to parallelism workers (0 or
// 1: inline); the result is identical at any value.
func (m *Mapper) Infer(traces []traceroute.Result, parallelism int) (*Result, error) {
	if m.table == nil {
		return nil, fmt.Errorf("bdrmap: nil prefix table")
	}
	obs := make([]borderObs, 0, len(traces))
	for ti := range traces {
		if o, ok := m.findBorder(&traces[ti]); ok {
			obs = append(obs, o)
		}
	}
	return &Result{Links: aggregate(obs), mapper: m, parallelism: parallelism}, nil
}

// aggregate merges the observations of each far IP into one link: the
// majority owner (the lowest ASN among equals), the evidence, and whether
// most sightings inferred the owner via next hop. It sorts obs by (far IP,
// owner), so each link is one run and each owner's count a run within it;
// the links come out in far-IP order. findBorder never attributes a far IP
// to the cloud or to no AS, so every link has a neighbor.
func aggregate(obs []borderObs) []Link {
	slices.SortFunc(obs, func(a, b borderObs) int {
		if c := a.farIP.Compare(b.farIP); c != 0 {
			return c
		}
		return cmp.Compare(a.owner, b.owner)
	})
	var links []Link
	via, run, best := 0, 0, 0 // the link's via-next sightings, the owner's run, the longest run
	for i, o := range obs {
		if i == 0 || o.farIP != obs[i-1].farIP {
			links = append(links, Link{FarIP: o.farIP})
			via, run, best = 0, 0, 0
		} else if o.owner != obs[i-1].owner {
			run = 0
		}
		l := &links[len(links)-1]
		if run++; run > best {
			best, l.Neighbor = run, o.owner
		}
		if o.viaNext {
			via++
		}
		l.Evidence++
		l.ViaNextHop = via > l.Evidence/2
	}
	return links
}

// groupRouters alias-resolves the far interfaces of each neighbor's links
// (far IPs of one router belong to the same neighbor) and numbers the
// routers in neighbor order, then in Resolve's order, into the
// index-aligned routers. The neighbors resolve independently, on up to
// parallelism workers. links must be in far-IP order.
func (m *Mapper) groupRouters(links []Link, routers []int, parallelism int) {
	// order lists the links by neighbor, each neighbor's in far-IP order;
	// runs[n] is where the n-th neighbor's links start.
	order := make([]int, len(links))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(links[a].Neighbor, links[b].Neighbor) })
	ips := make([]netip.Addr, len(order))
	var runs []int
	for k, i := range order {
		ips[k] = links[i].FarIP
		if k == 0 || links[i].Neighbor != links[order[k-1]].Neighbor {
			runs = append(runs, k)
		}
	}
	runs = append(runs, len(order))
	groups := make([][][]netip.Addr, len(runs)-1)
	analysis.ParallelFor(parallelism, len(groups), func(n int) {
		groups[n] = m.resolver.Resolve(ips[runs[n]:runs[n+1]])
	})
	routerID := 0
	for n, gs := range groups {
		for _, group := range gs {
			for _, ip := range group {
				k, _ := slices.BinarySearchFunc(ips[runs[n]:runs[n+1]], ip, netip.Addr.Compare)
				routers[order[runs[n]+k]] = routerID
			}
			routerID++
		}
	}
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
