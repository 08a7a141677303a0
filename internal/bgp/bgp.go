// Package bgp computes AS-level routes over the synthetic topology using the
// standard Gao-Rexford model (valley-free paths, customer > peer > provider
// preference, shortest AS path, lowest-ASN tie-break), and implements the
// cloud's two network-tier egress/ingress policies:
//
//   - Premium tier: cold-potato. Outgoing traffic rides the cloud's private
//     WAN and exits at the interconnection nearest the destination; incoming
//     traffic is handed off by the neighbor near the source and rides the
//     WAN to the region.
//   - Standard tier: hot-potato. Outgoing traffic exits at an interconnection
//     near the origin region and crosses the public Internet; incoming
//     traffic stays on the public Internet and enters near the region.
//
// Routing state is cached aggressively: the cloud's routes, trees and link
// choices are pure functions of the topology, computed once and then served
// from lock-free reads, so concurrent measurement workers never contend on
// a route that is already known. The cloud's route to a destination needs
// only that destination's provider cone, not a tree; a full tree is built
// for the routes toward the cloud. Warm precomputes both up front.
package bgp

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// Route-cache telemetry (see DESIGN.md §8). Updates no-op while the obs
// registry is disabled, so the lock-free cache hit paths stay at their PR 2
// cost.
var (
	obsTreeHits   = obs.Default().Counter("bgp_tree_cache_hits_total")
	obsTreeMisses = obs.Default().Counter("bgp_tree_cache_misses_total")
	obsTreeFills  = obs.Default().Counter("bgp_tree_fills_total")
	obsLinkHits   = obs.Default().Counter("bgp_link_cache_hits_total")
	obsLinkMisses = obs.Default().Counter("bgp_link_cache_misses_total")
	obsWarmDur    = obs.Default().Histogram("bgp_warm_duration_ns")
)

// ASN aliases the topology AS number type.
type ASN = topology.ASN

// Tier selects the cloud network service tier.
type Tier int

// The cloud's two network service tiers.
const (
	Premium Tier = iota
	Standard
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	if t == Premium {
		return "premium"
	}
	return "standard"
}

// route classes in preference order.
const (
	classCustomer = iota
	classPeer
	classProvider
)

// denseGraph is the topology's AS relationships re-indexed by the contiguous
// AS index (position in generation order), with neighbor lists pre-sorted by
// neighbor ASN — the order every tie-break in compute needs. Built once per
// Router; afterwards route computation touches no maps and sorts nothing
// per destination.
type denseGraph struct {
	n         int
	asns      []ASN         // index -> ASN
	index     map[ASN]int32 // ASN -> index
	providers [][]int32     // customer -> providers, sorted by provider ASN
	customers [][]int32     // provider -> customers, sorted by customer ASN
	peers     [][]int32     // sorted by peer ASN
}

// relations is the part of a topology buildDense reads.
type relations interface {
	Providers(ASN) []ASN
	Customers(ASN) []ASN
	Peers(ASN) []ASN
}

func buildDense(asns []ASN, rel relations) *denseGraph {
	g := &denseGraph{
		n:         len(asns),
		asns:      asns,
		index:     make(map[ASN]int32, len(asns)),
		providers: make([][]int32, len(asns)),
		customers: make([][]int32, len(asns)),
		peers:     make([][]int32, len(asns)),
	}
	for i, a := range asns {
		g.index[a] = int32(i)
	}
	conv := func(ns []ASN) []int32 {
		if len(ns) == 0 {
			return nil
		}
		out := make([]int32, 0, len(ns))
		for _, n := range ns {
			out = append(out, g.index[n])
		}
		sort.Slice(out, func(i, j int) bool { return g.asns[out[i]] < g.asns[out[j]] })
		return out
	}
	for i, a := range asns {
		g.providers[i] = conv(rel.Providers(a))
		g.customers[i] = conv(rel.Customers(a))
		g.peers[i] = conv(rel.Peers(a))
	}
	return g
}

// Tree is the routing state toward one destination AS: for every AS, the
// best valley-free route (class, AS-hop distance, next hop), held in dense
// slices keyed by the contiguous AS index. A Tree is immutable once built
// and safe for concurrent reads.
type Tree struct {
	dst    ASN
	dstIdx int32 // -1 when dst is not in the topology
	g      *denseGraph
	// per class: distance and next hop (as AS index) toward dst; -1 = none.
	dist [3][]int32
	next [3][]int32
}

// Router computes and caches routes over a topology: the cloud's route to
// each destination (cloudPath) and full routing trees (TreeTo). Cache hits
// are lock-free reads; each route and tree is computed at most once (misses
// singleflight through a per-destination sync.Once).
type Router struct {
	topo  *topology.Topology
	dense *denseGraph
	cloud int32 // the cloud's AS index
	// cloudPeer[i] is whether AS i peers with the cloud.
	cloudPeer []bool
	routes    []cloudRoute // by destination AS index
	scratch   sync.Pool    // *climbScratch

	trees     sync.Map // ASN -> *treeEntry
	linkCache sync.Map // linkCacheKey -> *topology.Interconnect
	// candidates is the link-cache miss path's table (buildCandidates):
	// per (region, cloud neighbor), one link per facility city. Read-only.
	candidates map[candidateKey][]*topology.Interconnect
}

// treeEntry singleflights one destination's computation.
type treeEntry struct {
	once sync.Once
	tree *Tree
}

// cloudRoute singleflights the cloud's path to one destination; nil when
// the cloud has no route.
type cloudRoute struct {
	once sync.Once
	path []ASN
}

// climbScratch is climb's state for one cloud route: per-AS customer-route
// distance and next hop, -1 everywhere between uses, and the BFS queue.
type climbScratch struct {
	dist, next []int32
	queue      []climbed
}

type linkCacheKey struct {
	region   string
	neighbor ASN
	anchor   string
}

type candidateKey struct {
	region   string
	neighbor ASN
}

// NewRouter creates a router for the given topology.
func NewRouter(t *topology.Topology) *Router {
	asns := make([]ASN, len(t.ASes()))
	for i, a := range t.ASes() {
		asns[i] = a.ASN
	}
	r := newRouter(buildDense(asns, t), t.Cloud.ASN)
	r.topo, r.candidates = t, buildCandidates(t)
	return r
}

// newRouter sets up the route caches over g for the given cloud AS.
func newRouter(g *denseGraph, cloud ASN) *Router {
	ci, ok := g.index[cloud]
	if !ok {
		panic(fmt.Sprintf("bgp: the cloud AS%d is not in the graph", cloud))
	}
	r := &Router{dense: g, cloud: ci, cloudPeer: make([]bool, g.n), routes: make([]cloudRoute, g.n)}
	for i, ps := range g.peers {
		r.cloudPeer[i] = slices.Contains(ps, ci)
	}
	r.scratch.New = func() any {
		s := &climbScratch{dist: make([]int32, g.n), next: make([]int32, g.n)}
		for i := range s.dist {
			s.dist[i], s.next[i] = -1, -1
		}
		return s
	}
	return r
}

// buildCandidates walks every cloud neighbor and region and keeps, per
// facility city, the lowest-ID visible link with coordinates. Links in one
// city share one Coord, so the nearest link to any anchor is among them. A
// neighbor's links are grouped by city once, in ID order, so each region
// takes the first visible link of every group.
func buildCandidates(t *topology.Topology) map[candidateKey][]*topology.Interconnect {
	neighbors := t.CloudNeighbors()
	out := make(map[candidateKey][]*topology.Interconnect, len(neighbors)*len(t.Regions))
	var byCity [][]*topology.Interconnect // reused across neighbors
	for _, nb := range neighbors {
		cities := 0
		for _, l := range t.LinksOf(nb) {
			if !l.CoordOK {
				continue
			}
			i := 0
			for i < cities && byCity[i][0].City != l.City {
				i++
			}
			if i == cities {
				if cities == len(byCity) {
					byCity = append(byCity, nil)
				}
				byCity[i] = byCity[i][:0]
				cities++
			}
			byCity[i] = append(byCity[i], l)
		}
		// One backing array for the neighbor's candidates in every region.
		backing := make([]*topology.Interconnect, 0, cities*len(t.Regions))
		for _, reg := range t.Regions {
			start := len(backing)
			for _, links := range byCity[:cities] {
				for _, l := range links {
					if t.IsVisible(reg.Name, l.ID) {
						backing = append(backing, l)
						break
					}
				}
			}
			if len(backing) > start {
				out[candidateKey{reg.Name, nb}] = backing[start:len(backing):len(backing)]
			}
		}
	}
	return out
}

// TreeTo returns the (cached) routing tree toward dst.
func (r *Router) TreeTo(dst ASN) *Tree {
	if e, ok := r.trees.Load(dst); ok {
		obsTreeHits.Inc()
		en := e.(*treeEntry)
		en.once.Do(func() { obsTreeFills.Inc(); en.tree = r.compute(dst) })
		return en.tree
	}
	obsTreeMisses.Inc()
	e, _ := r.trees.LoadOrStore(dst, new(treeEntry))
	en := e.(*treeEntry)
	en.once.Do(func() { obsTreeFills.Inc(); en.tree = r.compute(dst) })
	return en.tree
}

// Warm bulk-precomputes the routes a campaign's flows take, at most
// parallelism computations in flight: for the cloud in dsts, the tree of
// every AS's route to it (download ingress); for every other destination,
// the cloud's route to it (upload egress). A campaign calls this once at
// start so steady-state measurement never waits on a route. Warming is
// purely a cache fill: it changes no routing decision.
func (r *Router) Warm(dsts []ASN, parallelism int) {
	if parallelism < 1 {
		parallelism = 1
	}
	start := time.Now()
	defer func() { obsWarmDur.Observe(float64(time.Since(start))) }()
	cloud := r.dense.asns[r.cloud]
	sem := make(chan struct{}, parallelism)
	var wg sync.WaitGroup
	for _, dst := range dsts {
		wg.Add(1)
		sem <- struct{}{}
		go func(dst ASN) {
			defer wg.Done()
			defer func() { <-sem }()
			if dst == cloud {
				r.TreeTo(dst)
			} else {
				r.Path(cloud, dst)
			}
		}(dst)
	}
	wg.Wait()
}

// climbed is one AS climb reached, at its customer-route distance.
type climbed struct {
	idx  int32
	dist int32
}

// climb is phase 1 of the Gao-Rexford propagation toward the AS at index
// di: an AS has a customer route if di sits in its customer cone, so a BFS
// from di up customer->provider edges gives each such AS its distance and
// next hop, the lowest-ASN one among equals. dist and next must hold -1 for
// every AS; climb fills them for the ASes it reaches and returns queue
// (reused storage) listing them.
func (g *denseGraph) climb(di int32, dist, next []int32, queue []climbed) []climbed {
	queue = append(queue[:0], climbed{di, 0})
	dist[di] = 0
	for h := 0; h < len(queue); h++ {
		cur := queue[h]
		if dist[cur.idx] != cur.dist {
			continue // superseded
		}
		curASN := g.asns[cur.idx]
		for _, p := range g.providers[cur.idx] {
			nd := cur.dist + 1
			d := dist[p]
			if d < 0 || nd < d ||
				(nd == d && curASN < g.asns[next[p]]) {
				if d < 0 || nd < d {
					queue = append(queue, climbed{p, nd})
				}
				dist[p] = nd
				next[p] = cur.idx
			}
		}
	}
	return queue
}

// cloudPath computes the cloud's route to the AS at index di (not the
// cloud's) from di's provider cone alone. The cloud takes a customer route
// when di is in its customer cone; otherwise phase 2's rule applied at the
// cloud: the lowest (distance+1, ASN) over cone members that peer with it.
// The remaining hops are the member's customer route. A cloud with neither
// falls back to the full tree, which is exact for provider routes.
func (r *Router) cloudPath(di int32) []ASN {
	g := r.dense
	s := r.scratch.Get().(*climbScratch)
	defer r.scratch.Put(s)
	s.queue = g.climb(di, s.dist, s.next, s.queue)
	defer func() {
		for _, q := range s.queue {
			s.dist[q.idx], s.next[q.idx] = -1, -1
		}
	}()

	hop, hopDist := r.cloud, s.dist[r.cloud]
	if hopDist < 0 {
		hop = -1
		for _, q := range s.queue {
			if !r.cloudPeer[q.idx] || s.dist[q.idx] != q.dist {
				continue
			}
			if hop < 0 || q.dist+1 < hopDist ||
				(q.dist+1 == hopDist && g.asns[q.idx] < g.asns[hop]) {
				hop, hopDist = q.idx, q.dist+1
			}
		}
		if hop < 0 {
			path, _ := r.TreeTo(g.asns[di]).Path(g.asns[r.cloud])
			return path
		}
	}
	path := make([]ASN, 1, hopDist+1)
	path[0] = g.asns[r.cloud]
	for cur := hop; ; cur = s.next[cur] {
		if cur != r.cloud {
			path = append(path, g.asns[cur])
		}
		if cur == di {
			return path
		}
	}
}

// compute runs the three-phase Gao-Rexford propagation toward dst over the
// dense graph.
func (r *Router) compute(dst ASN) *Tree {
	g := r.dense
	tr := &Tree{dst: dst, dstIdx: -1, g: g}
	di, ok := g.index[dst]
	if !ok {
		return tr // unknown destination: no AS has a route
	}
	tr.dstIdx = di
	// One backing array for the six per-class slices.
	backing := make([]int32, 6*g.n)
	for i := range backing {
		backing[i] = -1
	}
	for c := 0; c < 3; c++ {
		tr.dist[c] = backing[(2*c+0)*g.n : (2*c+1)*g.n]
		tr.next[c] = backing[(2*c+1)*g.n : (2*c+2)*g.n]
	}
	dist, next := &tr.dist, &tr.next

	// Phase 1: customer routes.
	g.climb(di, dist[classCustomer], next[classCustomer], nil)

	// Phase 2: peer routes. One peer edge, then a customer route. The
	// result is a pure (distance, lowest-ASN) minimum over candidates, so
	// scanning in index order converges to the same routes as any order.
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

	// Phase 3: provider routes. An AS learns from each provider that
	// provider's best exportable route. Process by increasing distance
	// (unit weights -> bucketed BFS). As in phase 2, the relaxation is a
	// pure (distance, lowest-ASN) minimum: while bucket d is processed no
	// route of distance <= d changes, so the order within a bucket cannot
	// change any dist or next, and buckets are walked as filled.
	best := func(i int32) (int32, bool) {
		if d := dist[classCustomer][i]; d >= 0 {
			return d, true
		}
		if d := dist[classPeer][i]; d >= 0 {
			return d, true
		}
		if d := dist[classProvider][i]; d >= 0 {
			return d, true
		}
		return 0, false
	}
	// Seed buckets with every AS that already has a route.
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
		for _, u := range buckets[d] {
			bd, ok := best(u)
			if !ok || bd != d {
				continue // superseded by a better route
			}
			uASN := g.asns[u]
			for _, c := range g.customers[u] {
				// Customer/peer routes always beat provider routes;
				// never overwrite them.
				if dist[classCustomer][c] >= 0 {
					continue
				}
				if dist[classPeer][c] >= 0 {
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

// Path returns the AS path from src to the tree's destination, inclusive of
// both endpoints. ok is false when src has no valley-free route.
func (tr *Tree) Path(src ASN) ([]ASN, bool) {
	if src == tr.dst {
		return []ASN{src}, true
	}
	if tr.dstIdx < 0 {
		return nil, false
	}
	si, ok := tr.g.index[src]
	if !ok {
		return nil, false
	}
	var path []ASN
	cur := si
	// After the first peer or provider edge the remaining path must
	// descend through customer routes (valley-free); the stored per-class
	// next hops encode exactly that.
	for cur != tr.dstIdx {
		path = append(path, tr.g.asns[cur])
		if len(path) > 64 {
			return nil, false // defensive: malformed state
		}
		var next int32
		if tr.dist[classCustomer][cur] >= 0 {
			next = tr.next[classCustomer][cur]
		} else if tr.dist[classPeer][cur] >= 0 {
			next = tr.next[classPeer][cur]
		} else if tr.dist[classProvider][cur] >= 0 {
			next = tr.next[classProvider][cur]
		} else {
			return nil, false
		}
		cur = next
	}
	return append(path, tr.dst), true
}

// Path returns the AS path from src to dst. The cloud's paths are computed
// once per destination and shared: callers must not modify them.
func (r *Router) Path(src, dst ASN) ([]ASN, bool) {
	cloud := r.dense.asns[r.cloud]
	if src != cloud || dst == cloud {
		return r.TreeTo(dst).Path(src)
	}
	di, ok := r.dense.index[dst]
	if !ok {
		return nil, false
	}
	rt := &r.routes[di]
	rt.once.Do(func() { rt.path = r.cloudPath(di) })
	return rt.path, rt.path != nil
}

// EgressChoice describes the cloud-side routing decision for one flow.
type EgressChoice struct {
	Link *topology.Interconnect // interconnect crossed
	Path []ASN                  // AS path cloud -> destination (inclusive)
}

// EgressLink selects the interconnect for traffic from a region to a
// destination AS located at dstCity, under the given tier policy.
func (r *Router) EgressLink(region string, dstASN ASN, dstCity string, tier Tier) (EgressChoice, error) {
	t := r.topo
	path, ok := r.Path(t.Cloud.ASN, dstASN)
	if !ok || len(path) < 2 {
		return EgressChoice{}, fmt.Errorf("bgp: no route from cloud to AS%d", dstASN)
	}
	neighbor := path[1]
	anchorCity := dstCity
	if tier == Standard {
		reg, ok := t.Region(region)
		if !ok {
			return EgressChoice{}, fmt.Errorf("bgp: unknown region %q", region)
		}
		anchorCity = reg.City
	}
	link, err := r.nearestVisibleLink(region, neighbor, anchorCity)
	if err != nil {
		return EgressChoice{}, err
	}
	return EgressChoice{Link: link, Path: path}, nil
}

// IngressLink selects the interconnect where traffic from srcASN (at
// srcCity) enters the cloud on its way to a region, under the given tier.
func (r *Router) IngressLink(region string, srcASN ASN, srcCity string, tier Tier) (EgressChoice, error) {
	t := r.topo
	path, ok := r.Path(srcASN, t.Cloud.ASN)
	if !ok || len(path) < 2 {
		return EgressChoice{}, fmt.Errorf("bgp: no route from AS%d to cloud", srcASN)
	}
	neighbor := path[len(path)-2]
	anchorCity := srcCity
	if tier == Standard {
		reg, ok := t.Region(region)
		if !ok {
			return EgressChoice{}, fmt.Errorf("bgp: unknown region %q", region)
		}
		anchorCity = reg.City
	}
	link, err := r.nearestVisibleLink(region, neighbor, anchorCity)
	if err != nil {
		return EgressChoice{}, err
	}
	return EgressChoice{Link: link, Path: path}, nil
}

// nearestVisibleLink picks the region-visible link with the given neighbor
// whose facility is closest to anchorCity, breaking ties by lowest link ID.
// A miss scans the per-city candidates only: every link of a city is as far
// from the anchor as the city's lowest-ID link, which wins the tie. Choices
// are cached lock-free: the decision is a pure function of its inputs, so a
// racing duplicate computation stores an identical value.
func (r *Router) nearestVisibleLink(region string, neighbor ASN, anchorCity string) (*topology.Interconnect, error) {
	key := linkCacheKey{region: region, neighbor: neighbor, anchor: anchorCity}
	if l, ok := r.linkCache.Load(key); ok {
		obsLinkHits.Inc()
		return l.(*topology.Interconnect), nil
	}
	obsLinkMisses.Inc()
	t := r.topo
	anchor, ok := t.CityCoord(anchorCity)
	if !ok {
		return nil, fmt.Errorf("bgp: unknown city %q", anchorCity)
	}
	var best *topology.Interconnect
	bestD := 0.0
	for _, l := range r.candidates[candidateKey{region, neighbor}] {
		d := geo.DistanceKm(anchor, l.Coord)
		if best == nil || d < bestD || (d == bestD && l.ID < best.ID) {
			best, bestD = l, d
		}
	}
	if best == nil {
		return nil, fmt.Errorf("bgp: neighbor AS%d has no visible link in %s", neighbor, region)
	}
	r.linkCache.Store(key, best)
	return best, nil
}

// EgressForProbe resolves the interconnect for a pilot probe target, which
// is engineered onto a specific link. Falls back to EgressLink when the
// address has no engineered link or that link is not visible from region.
func (r *Router) EgressForProbe(region string, probe *ProbeDest) (EgressChoice, error) {
	t := r.topo
	if probe.LinkID >= 0 && t.IsVisible(region, probe.LinkID) {
		link := t.Link(probe.LinkID)
		path, ok := r.Path(t.Cloud.ASN, probe.ASN)
		if ok {
			// Respect the engineered link even when the default
			// best path would pick a different neighbor.
			if len(path) < 2 || path[1] != link.Neighbor {
				path = []ASN{t.Cloud.ASN, link.Neighbor, probe.ASN}
				if link.Neighbor == probe.ASN {
					path = path[:2]
				}
			}
			return EgressChoice{Link: link, Path: path}, nil
		}
	}
	return r.EgressLink(region, probe.ASN, probe.City, Premium)
}

// ProbeDest is a pilot-scan destination: an address engineered through a
// known link.
type ProbeDest struct {
	ASN    ASN
	City   string
	LinkID int // -1 when not engineered
}
