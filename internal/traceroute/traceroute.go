// Package traceroute implements a scamper-style paris-traceroute prober
// over the network simulator. Paris traceroute keeps the flow identifier
// constant across probes so per-flow load balancing (ECMP) cannot split one
// measurement across multiple paths; classic mode varies the flow ID per
// probe, reproducing the path oscillation bdrmap must avoid.
package traceroute

import (
	"encoding/json"
	"fmt"
	"io"
	"net/netip"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// Mode selects probe flow-ID behaviour.
type Mode int

// Probing modes.
const (
	// Paris keeps the probe flow ID fixed (scamper's paris-traceroute).
	Paris Mode = iota
	// Classic varies the flow ID per probe, as classic traceroute does.
	Classic
)

// Destination identifies a traceroute target and its routing hints.
type Destination struct {
	IP   netip.Addr
	ASN  netsim.ASN
	City string
	// LinkID pins an engineered pilot-probe target to its interconnect;
	// -1 for ordinary destinations.
	LinkID int
	// Tier selects the cloud egress policy.
	Tier bgp.Tier
}

// Options tunes a trace.
type Options struct {
	Mode   Mode
	FlowID uint64 // base flow identifier (paris keeps it fixed)
	// ResponseLoss is the per-probe probability a hop stays silent
	// (default 0.04; pass a negative value for zero loss).
	ResponseLoss float64
}

// HopReply is the response observed at one TTL.
type HopReply struct {
	TTL       int        `json:"ttl"`
	IP        netip.Addr `json:"addr"`
	RTTms     float64    `json:"rtt_ms"`
	Responded bool       `json:"responded"`
}

// Result is one completed traceroute.
type Result struct {
	Dst     netip.Addr `json:"dst"`
	Region  string     `json:"region"`
	Mode    string     `json:"mode"`
	FlowID  uint64     `json:"flow_id"`
	Hops    []HopReply `json:"hops"`
	Reached bool       `json:"reached"`
}

// Prober issues traceroutes from one cloud region.
type Prober struct {
	sim    *netsim.Sim
	region string
	seed   int64
}

// NewProber creates a prober for a region.
func NewProber(sim *netsim.Sim, region string, seed int64) *Prober {
	return &Prober{sim: sim, region: region, seed: seed}
}

// A trace probes at most maxTTL hops, each up to attempts times before
// declaring it silent (scamper's -q).
const maxTTL, attempts = 32, 3

// Trace probes the destination hop by hop.
func (p *Prober) Trace(dst Destination, opts Options) (Result, error) {
	if opts.ResponseLoss == 0 {
		opts.ResponseLoss = 0.04
	}
	res := Result{Dst: dst.IP, Region: p.region, FlowID: opts.FlowID}
	if opts.Mode == Paris {
		res.Mode = "paris"
	} else {
		res.Mode = "classic"
	}

	// Paris keeps one flow ID, so every TTL probes the same forward path:
	// resolve it once. Classic re-resolves per TTL below.
	var path []netsim.Hop
	for ttl := 1; ttl <= maxTTL; ttl++ {
		flowID := opts.FlowID
		if opts.Mode == Classic {
			// Classic traceroute varies ports per probe, so the flow
			// hashes differently at every TTL.
			flowID = opts.FlowID*131 + uint64(ttl)
		}
		if opts.Mode == Classic || ttl == 1 {
			var err error
			path, err = p.sim.ForwardPath(p.region, dst.IP, dst.ASN, dst.City, dst.LinkID, dst.Tier, flowID)
			if err != nil {
				return res, fmt.Errorf("traceroute: %w", err)
			}
			if ttl == 1 {
				res.Hops = make([]HopReply, 0, len(path))
			}
		}
		if ttl > len(path) {
			break
		}
		hop := path[ttl-1]
		// Some routers rate-limit or drop TTL-exceeded responses; retry
		// up to attempts times like scamper does.
		reply := HopReply{TTL: ttl, Responded: false}
		for attempt := 0; attempt < attempts; attempt++ {
			if !silentHop(p.seed, hop.IP, flowID+uint64(attempt)<<48, opts.ResponseLoss) {
				reply = HopReply{TTL: ttl, IP: hop.IP, RTTms: hop.RTTms, Responded: true}
				break
			}
		}
		res.Hops = append(res.Hops, reply)
		if hop.IP == dst.IP && ttl == len(path) {
			res.Reached = reply.Responded
			if !reply.Responded {
				// The destination itself always answers probes aimed at
				// it (speed test servers are responsive web services).
				res.Hops[len(res.Hops)-1] = HopReply{TTL: ttl, IP: hop.IP, RTTms: hop.RTTms, Responded: true}
				res.Reached = true
			}
			break
		}
	}
	return res, nil
}

// silentHop deterministically decides whether a router suppresses its
// TTL-exceeded reply for this probe.
func silentHop(seed int64, ip netip.Addr, flowID uint64, p float64) bool {
	if p <= 0 {
		return false
	}
	h := uint64(14695981039346656037)
	for _, b := range ip.AsSlice() {
		h ^= uint64(b)
		h *= 1099511628211
	}
	h ^= flowID
	h *= 1099511628211
	h ^= uint64(seed)
	h *= 1099511628211
	h ^= h >> 33
	return float64(h>>11)/(1<<53) < p
}

// WriteJSON streams results in a scamper-like JSON-lines format.
func WriteJSON(w io.Writer, results []Result) error {
	enc := json.NewEncoder(w)
	for i := range results {
		if err := enc.Encode(&results[i]); err != nil {
			return fmt.Errorf("traceroute: encoding result: %w", err)
		}
	}
	return nil
}
