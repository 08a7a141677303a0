package traceroute

import (
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
)

// referenceTrace is Trace as it stood before a Paris trace resolved its
// forward path once: ForwardPath is asked again at every TTL, in both modes.
func referenceTrace(p *Prober, dst Destination, opts Options) (Result, error) {
	if opts.ResponseLoss == 0 {
		opts.ResponseLoss = 0.04
	}
	res := Result{Dst: dst.IP, Region: p.region, FlowID: opts.FlowID}
	if opts.Mode == Paris {
		res.Mode = "paris"
	} else {
		res.Mode = "classic"
	}
	for ttl := 1; ttl <= maxTTL; ttl++ {
		flowID := opts.FlowID
		if opts.Mode == Classic {
			flowID = opts.FlowID*131 + uint64(ttl)
		}
		path, err := p.sim.ForwardPath(p.region, dst.IP, dst.ASN, dst.City, dst.LinkID, dst.Tier, flowID)
		if err != nil {
			return res, err
		}
		if ttl > len(path) {
			break
		}
		hop := path[ttl-1]
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
				res.Hops[len(res.Hops)-1] = HopReply{TTL: ttl, IP: hop.IP, RTTms: hop.RTTms, Responded: true}
				res.Reached = true
			}
			break
		}
	}
	return res, nil
}

// TestTraceMatchesPerTTLReference: resolving a Paris trace's path once must
// not change a hop — in either mode, toward every US server and every pilot
// probe target of the default topology, under heavy response loss too.
func TestTraceMatchesPerTTLReference(t *testing.T) {
	p, topo := newProber(t)
	var dsts []Destination
	for _, s := range topo.ServersInCountry("US") {
		dsts = append(dsts, serverDest(s))
	}
	for _, l := range topo.VisibleLinks("us-east1") {
		if addr, ok := topo.ProbeTarget(l.ID); ok {
			if nb := topo.AS(l.Neighbor); nb != nil && len(nb.Cities) > 0 {
				dsts = append(dsts, Destination{IP: addr, ASN: l.Neighbor, City: nb.Cities[0], LinkID: l.ID, Tier: bgp.Premium})
			}
		}
	}
	if len(dsts) < 100 {
		t.Fatalf("only %d destinations", len(dsts))
	}
	for i, dst := range dsts {
		for _, opts := range []Options{
			{Mode: Paris, FlowID: uint64(1_000_000 + i)},
			{Mode: Classic, FlowID: uint64(i)},
			{Mode: Paris, FlowID: uint64(i), ResponseLoss: 0.5},
		} {
			got, err := p.Trace(dst, opts)
			if err != nil {
				t.Fatal(err)
			}
			want, err := referenceTrace(p, dst, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("destination %v, options %+v:\n got %+v\nwant %+v", dst.IP, opts, got, want)
			}
		}
	}
}
