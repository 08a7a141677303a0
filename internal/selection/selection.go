// Package selection implements CLASP's two speed-test-server selection
// methods (§3.1):
//
//   - Topology-based: run a bdrmap pilot scan from the region, traceroute
//     to every US test server, group servers by the far-side interface of
//     the interdomain link they traverse, and keep — per link — the server
//     with the shortest AS path (then lowest RTT), subject to the region's
//     measurement budget.
//   - Differential-based: from the Speedchecker preliminary latency scan,
//     find ⟨city, AS⟩ tuples where the premium/standard tier latency
//     difference is large (≥ 50 ms) or negligible (< 10 ms), and pick test
//     servers in those tuples, maximising geographic and network coverage.
package selection

import (
	"fmt"
	"math"
	"net/netip"
	"sort"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/speedchecker"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

// --- Topology-based selection ------------------------------------------------

// TopoParams tunes the topology-based method.
type TopoParams struct {
	Region string
	// Budget caps the number of selected servers (0 = unlimited). The
	// paper deployed all selected servers in us-west1/us-east1 but only
	// 25/40/56 in us-west2/us-east4/us-central1.
	Budget int
	// Seed drives probe flow IDs.
	Seed int64
	// Parallelism is how many traceroutes, and how many neighbors' alias
	// resolutions, run at once; 0 or 1 runs inline. The result is identical
	// at any value.
	Parallelism int
}

// Selected is one chosen server with the link it measures.
type Selected struct {
	Server   *topology.Server
	FarIP    netip.Addr // far side of the interdomain link it traverses
	Neighbor bdrmap.ASN
	ASHops   int
	RTTms    float64
}

// TopoResult is the outcome of the topology-based method, carrying the
// numbers reported in Table 1.
type TopoResult struct {
	// PilotLinks is what bdrmap found in the pilot scan (~6k per region).
	PilotLinks *bdrmap.Result
	// ServerLinkCount is the number of distinct interdomain links that
	// traceroutes to all US servers traversed (Table 1, middle column).
	ServerLinkCount int
	// Selected is the final server list (Table 1, right column).
	Selected []Selected
	// SharedFraction is the fraction of servers that shared their link
	// with at least one other server (75.5-91.6 % in the paper).
	SharedFraction float64
}

// Coverage returns the fraction of server-traversed links that the
// selected servers measure (Table 1: 20.7-69.4 %).
func (r *TopoResult) Coverage() float64 {
	if r.ServerLinkCount == 0 {
		return 0
	}
	return float64(len(r.Selected)) / float64(r.ServerLinkCount)
}

// maxASHops keeps only links whose best server is at most this many AS hops
// away (the paper preferred directly peering servers).
const maxASHops = 2

// TopologyBased runs the full topology-based pipeline.
func TopologyBased(sim *netsim.Sim, mapper *bdrmap.Mapper, params TopoParams) (*TopoResult, error) {
	topo := sim.Topology()
	if _, ok := topo.Region(params.Region); !ok {
		return nil, fmt.Errorf("selection: unknown region %q", params.Region)
	}
	prober := traceroute.NewProber(sim, params.Region, params.Seed)

	// 1. Pilot scan: traceroute to every visible link's engineered probe
	// target, then infer borders.
	var pilotDsts []traceroute.Destination
	for _, l := range topo.VisibleLinks(params.Region) {
		addr, ok := topo.ProbeTarget(l.ID)
		if !ok {
			continue
		}
		nb := topo.AS(l.Neighbor)
		if nb == nil || len(nb.Cities) == 0 {
			continue
		}
		pilotDsts = append(pilotDsts, traceroute.Destination{
			IP: addr, ASN: l.Neighbor, City: nb.Cities[0], LinkID: l.ID, Tier: bgp.Premium,
		})
	}
	pilotTraces := make([]traceroute.Result, len(pilotDsts))
	errs := make([]error, len(pilotDsts))
	analysis.ParallelFor(params.Parallelism, len(pilotDsts), func(i int) {
		pilotTraces[i], errs[i] = prober.Trace(pilotDsts[i],
			traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(pilotDsts[i].LinkID)})
	})
	if err := firstError(errs); err != nil {
		return nil, fmt.Errorf("selection: pilot trace: %w", err)
	}
	pilot, err := mapper.Infer(pilotTraces, params.Parallelism)
	if err != nil {
		return nil, fmt.Errorf("selection: pilot inference: %w", err)
	}

	// The pilot links by far-side interface: membership attributes server
	// traces below, the value names each selected link's neighbor.
	neighborOf := make(map[netip.Addr]bdrmap.ASN, len(pilot.Links))
	for _, l := range pilot.Links {
		neighborOf[l.FarIP] = l.Neighbor
	}

	// 2. Traceroute to every US server and attribute each to the far-side
	// interface it crossed.
	type serverObs struct {
		server *topology.Server
		farIP  netip.Addr
		asHops int
		rtt    float64
	}
	servers := topo.USServers()
	traced := make([]serverObs, len(servers))
	errs = make([]error, len(servers))
	analysis.ParallelFor(params.Parallelism, len(servers), func(i int) {
		s := servers[i]
		tr, err := prober.Trace(traceroute.Destination{
			IP: s.IP, ASN: s.ASN, City: s.City, LinkID: -1, Tier: bgp.Premium,
		}, traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(1_000_000 + s.ID)})
		if err != nil {
			errs[i] = err
			return
		}
		if far, hops, rtt, ok := attributeTrace(topo, neighborOf, &tr); ok {
			traced[i] = serverObs{server: s, farIP: far, asHops: hops, rtt: rtt}
		}
	})
	if err := firstError(errs); err != nil {
		return nil, fmt.Errorf("selection: server trace: %w", err)
	}
	observations := traced[:0]
	for _, o := range traced {
		if o.server != nil {
			observations = append(observations, o)
		}
	}

	// 3. Group by far IP (merging alias-resolved routers keeps one entry
	// per link, identified by far IP as bdrmap does).
	groups := make(map[netip.Addr][]serverObs)
	for _, o := range observations {
		groups[o.farIP] = append(groups[o.farIP], o)
	}
	shared := 0
	for _, g := range groups {
		if len(g) > 1 {
			shared += len(g)
		}
	}
	var sharedFrac float64
	if len(observations) > 0 {
		sharedFrac = float64(shared) / float64(len(observations))
	}

	// 4. Per link, keep the best server: shortest AS path, then lowest
	// RTT; drop links whose best server is too many AS hops away.
	var selected []Selected
	farIPs := make([]netip.Addr, 0, len(groups))
	for ip := range groups {
		farIPs = append(farIPs, ip)
	}
	sort.Slice(farIPs, func(i, j int) bool { return farIPs[i].Compare(farIPs[j]) < 0 })
	for _, ip := range farIPs {
		g := groups[ip]
		sort.Slice(g, func(i, j int) bool {
			if g[i].asHops != g[j].asHops {
				return g[i].asHops < g[j].asHops
			}
			if g[i].rtt != g[j].rtt {
				return g[i].rtt < g[j].rtt
			}
			return g[i].server.ID < g[j].server.ID
		})
		best := g[0]
		if best.asHops > maxASHops {
			continue
		}
		selected = append(selected, Selected{
			Server:   best.server,
			FarIP:    ip,
			Neighbor: neighborOf[ip],
			ASHops:   best.asHops,
			RTTms:    best.rtt,
		})
	}

	// 5. Budget: keep the lowest-latency selections first ("heuristically
	// maximizing coverage" under cost limits).
	if params.Budget > 0 && len(selected) > params.Budget {
		sort.Slice(selected, func(i, j int) bool {
			if selected[i].RTTms != selected[j].RTTms {
				return selected[i].RTTms < selected[j].RTTms
			}
			return selected[i].Server.ID < selected[j].Server.ID
		})
		selected = selected[:params.Budget]
	}
	sort.Slice(selected, func(i, j int) bool { return selected[i].Server.ID < selected[j].Server.ID })

	return &TopoResult{
		PilotLinks:      pilot,
		ServerLinkCount: len(groups),
		Selected:        selected,
		SharedFraction:  sharedFrac,
	}, nil
}

// firstError is the error of the lowest failing index: the one a serial
// loop that stops at its first failure would have returned.
func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// attributeTrace finds the interdomain link a server trace crossed, the AS
// path length, and the destination RTT. pilotLinks is keyed by the far-side
// interface of every link the pilot scan inferred.
func attributeTrace(topo *topology.Topology, pilotLinks map[netip.Addr]bdrmap.ASN, tr *traceroute.Result) (far netip.Addr, asHops int, rtt float64, ok bool) {
	table := topo.PrefixTable()
	// Walk hops: the far side is the first hop matching a pilot link (or,
	// failing that, the first non-cloud hop). Count AS transitions after
	// the cloud for the AS path length.
	cloud := topo.Cloud.ASN
	var lastASN bdrmap.ASN = cloud
	hopsSeen := 0
	reachedRTT := 0.0
	for _, h := range tr.Hops {
		if !h.Responded {
			continue
		}
		reachedRTT = h.RTTms
		asn := table.LookupASN(h.IP)
		if far == (netip.Addr{}) {
			if _, known := pilotLinks[h.IP]; known {
				far = h.IP
			}
		}
		if asn != 0 && asn != lastASN {
			if lastASN != cloud || asn != cloud {
				hopsSeen++
			}
			lastASN = asn
		}
	}
	if far == (netip.Addr{}) || !tr.Reached {
		return netip.Addr{}, 0, 0, false
	}
	return far, hopsSeen, reachedRTT, true
}

// --- Differential-based selection ---------------------------------------------

// DiffClass is the latency relationship between the tiers for a candidate.
type DiffClass int

// Candidate classes (Fig. 5's green/red/blue grouping).
const (
	// Comparable: |standard - premium| < 10 ms.
	Comparable DiffClass = iota
	// PremiumLower: premium tier at least 50 ms faster.
	PremiumLower
	// StandardLower: standard tier at least 50 ms faster.
	StandardLower
)

// String implements fmt.Stringer.
func (c DiffClass) String() string {
	switch c {
	case Comparable:
		return "comparable"
	case PremiumLower:
		return "premium-lower"
	default:
		return "standard-lower"
	}
}

// DiffParams tunes the differential-based method.
type DiffParams struct {
	Region string
	// Target is the number of servers to select (the paper chose 15-17).
	Target int
	// MinSamples drops tuples with fewer measurements (default 100).
	MinSamples int
}

// DiffSelected is one server chosen by the differential method.
type DiffSelected struct {
	Server  *topology.Server
	Class   DiffClass
	DeltaMs float64 // standard - premium median latency
}

// highMs and lowMs are the differential method's |Δ| thresholds: a tuple is
// a candidate when one tier is at least highMs faster, or the two are within
// lowMs.
const highMs, lowMs = 50, 10

// DifferentialBased selects servers from preliminary-scan deltas.
func DifferentialBased(topo *topology.Topology, deltas []speedchecker.TierDelta, params DiffParams) ([]DiffSelected, error) {
	if params.Target <= 0 {
		params.Target = 16
	}
	if params.MinSamples <= 0 {
		params.MinSamples = 100
	}
	if _, ok := topo.Region(params.Region); !ok {
		return nil, fmt.Errorf("selection: unknown region %q", params.Region)
	}

	// Candidate tuples: |delta| >= highMs or < lowMs.
	type cand struct {
		city  string
		asn   topology.ASN
		class DiffClass
		delta float64
	}
	var candidates []cand
	for _, d := range deltas {
		if d.Region != params.Region || d.MinCount < params.MinSamples {
			continue
		}
		abs := math.Abs(d.DeltaMs)
		switch {
		case abs >= highMs && d.DeltaMs > 0:
			candidates = append(candidates, cand{d.City, d.ASN, PremiumLower, d.DeltaMs})
		case abs >= highMs:
			candidates = append(candidates, cand{d.City, d.ASN, StandardLower, d.DeltaMs})
		case abs < lowMs:
			candidates = append(candidates, cand{d.City, d.ASN, Comparable, d.DeltaMs})
		}
	}

	// Map candidates to servers in the same <city, AS>.
	type scored struct {
		sel DiffSelected
		cc  string
		asn topology.ASN
	}
	var pool []scored
	seenServer := make(map[int]bool)
	for _, c := range candidates {
		for _, s := range topo.Servers() {
			if s.ASN != c.asn || s.City != c.city || seenServer[s.ID] {
				continue
			}
			seenServer[s.ID] = true
			pool = append(pool, scored{
				sel: DiffSelected{Server: s, Class: c.class, DeltaMs: c.delta},
				cc:  s.Country, asn: s.ASN,
			})
		}
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].sel.Server.ID < pool[j].sel.Server.ID })

	// Greedy pick maximising coverage: prefer unseen (class, country, AS)
	// combinations, cycling through the classes.
	var out []DiffSelected
	usedCountry := make(map[string]int)
	usedAS := make(map[topology.ASN]int)
	picked := make(map[int]bool)
	for len(out) < params.Target {
		bestIdx := -1
		bestScore := math.Inf(-1)
		wantClass := DiffClass(len(out) % 3)
		for i, p := range pool {
			if picked[p.sel.Server.ID] {
				continue
			}
			score := 0.0
			if p.sel.Class == wantClass {
				score += 4
			}
			score -= 2 * float64(usedAS[p.asn])
			score -= float64(usedCountry[p.cc])
			if score > bestScore {
				bestScore = score
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break
		}
		p := pool[bestIdx]
		picked[p.sel.Server.ID] = true
		usedCountry[p.cc]++
		usedAS[p.asn]++
		out = append(out, p.sel)
	}
	return out, nil
}
