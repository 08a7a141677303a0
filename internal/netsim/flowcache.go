package netsim

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// The per-flow cache. A flow is one (region, server, tier, direction)
// combination, and a measurement's inputs stop changing at three levels:
//
//   - Per flow: the routing decision and every time-invariant input to the
//     RTT and bandwidth models are pure functions of (topology, seed),
//     resolved once into a flowEntry.
//   - Per (flow, day): the paper's schedule asks a flow the same question 24
//     times a day with only the hour changing, and the congestion dips' day
//     draws, the lossy-port day factor and the hash prefixes of the jitter
//     and noise draws are pure functions of (seed, flow, day). The entry
//     holds them in an immutable flowDay behind an atomic pointer, rebuilt
//     when a test's day differs from the remembered one.
//   - Per caller: Measure finds the entry by key on every call; a Flow is a
//     caller-owned handle that found it once.
//
// Nothing remembered can change a bit. Each record is a pure function of
// its key, so goroutines racing to replace a day record store equal values,
// a reader holding a replaced record still computes that record's own day
// correctly, and no measured value ever feeds back into a record. The
// arithmetic is the uncached path's — pathRTT/pathBandwidth, same operations
// in the same order — which TestFlowCacheMatchesUncached holds it to, by
// spec and by handle.

// flowKeyT identifies one measured flow.
type flowKeyT struct {
	region string
	server int
	tier   bgp.Tier
	dir    Direction
}

// rttModel is the time-invariant half of pathRTT for one (region, endpoint,
// interconnect, tier): everything but the hour's congestion dip and jitter.
// Immutable once built.
type rttModel struct {
	regionRTT
	endpoint
}

// regionRTT is the region's share of an rttModel.
type regionRTT struct {
	baseRTT      float64 // static partial sum, accumulated in pathRTT's order
	regionFactor float64 // scales the endpoint's daily event probability
}

// endpoint is the region-free share of an rttModel: the endpoint's
// congestion profile and UTC offset, which place its queueing dip.
type endpoint struct {
	hasDip  bool // endpoint city and AS resolved
	endCong topology.CongestionProfile
	endUTC  int
}

// newRTTModel resolves the static inputs of pathRTT for one routed path.
func (s *Sim) newRTTModel(region string, endASN ASN, endCity string, choice bgp.EgressChoice, tier bgp.Tier) rttModel {
	return rttModel{s.newRegionRTT(region, endASN, endCity, choice, tier), s.endpointOf(endASN, endCity)}
}

func (s *Sim) newRegionRTT(region string, endASN ASN, endCity string, choice bgp.EgressChoice, tier bgp.Tier) regionRTT {
	r := regionRTT{
		baseRTT:      s.staticRTT(region, endASN, endCity, choice, tier),
		regionFactor: s.cfg.RegionCongestionFactor[region],
	}
	if r.regionFactor == 0 {
		r.regionFactor = 1
	}
	return r
}

func (s *Sim) endpointOf(endASN ASN, endCity string) endpoint {
	if city, ok := s.topo.CityOf(endCity); ok {
		if endAS := s.topo.AS(endASN); endAS != nil {
			return endpoint{hasDip: true, endCong: endAS.Congestion, endUTC: city.UTCOffset}
		}
	}
	return endpoint{}
}

// rtt is the time-varying half of pathRTT given the hour's two draws: the
// endpoint's congestion dip (0 for a model without one, which adds nothing)
// and the jitter factor.
func (r *regionRTT) rtt(s *Sim, dip, jitter float64) float64 {
	return (r.baseRTT + dip*s.cfg.QueueDelayMaxMs) * jitter
}

// jitterFactor scales an RTT by the hour's jitter normal.
func jitterFactor(n float64) float64 {
	return clamp(1+0.03*n, 0.9, 1.15)
}

// flowEntry is the static model inputs of one flow's resolved routing
// decision. Immutable once built, except for the day pointer.
type flowEntry struct {
	tier    bgp.Tier
	dir     Direction
	flowKey uint64 // per-flow hash key (the server ID)

	rttModel
	regionHash uint64

	// Bandwidth model.
	srvCong      topology.CongestionProfile
	nbCong       topology.CongestionProfile
	srvUTC       int
	linkUTC      int
	srvKey       uint64 // serverKey: the ISP-aggregation dip's entity
	linkKey      uint64 // linkKey: the interconnect's entity
	accessMbps   float64
	aggBase      float64 // download ISP-aggregation capacity before the dip
	headroom     float64 // tier-adjusted interconnect headroom
	baseLoss     float64 // tier-adjusted residual loss
	lossyPremium bool
	lossRate     float64

	// day is the flow's day record, nil until the first measurement.
	day atomic.Pointer[flowDay]
}

// flowDay is what a flow's measurements share within one day. Immutable.
type flowDay struct {
	day uint64
	// The dips a test of this flow asks for: the endpoint's queueing dip of
	// the RTT model, the server's ISP-aggregation dip (download only) and
	// the interconnect's, which an upload keys and scales differently.
	endDip, srvDip, linkDip dipDay
	// lossyFactor is the day's loss scale of a chronically lossy premium
	// port; zero on every other flow.
	lossyFactor float64
	// jitter and noise are the FNV prefixes of the two per-test normals,
	// folded through (seed, flow, day); a test folds in the hour and the
	// draw's remaining keys. jitter is also the endpoint dip's day prefix.
	jitter, noise uint64
}

// dayFor returns the flow's record for day, replacing the remembered one
// when it is for another day. Racing replacements store equal records.
func (fe *flowEntry) dayFor(s *Sim, day uint64) *flowDay {
	if d := fe.day.Load(); d != nil && d.day == day {
		return d
	}
	d := &flowDay{
		day:    day,
		jitter: fnvFold(s.cfg.Seed, fe.flowKey, day),
		noise:  fnvFold(s.cfg.Seed, fe.regionHash, fe.flowKey, day),
	}
	if fe.hasDip {
		d.endDip = s.dayDraws(&fe.endCong, d.jitter, fe.regionFactor)
	}
	if fe.dir == Download {
		link := fnvFold(s.cfg.Seed, fe.linkKey, day)
		d.srvDip = s.dayDraws(&fe.srvCong, fnvFold(s.cfg.Seed, fe.srvKey, day), fe.regionFactor)
		d.linkDip = s.dayDraws(&fe.nbCong, link, fe.regionFactor)
		if fe.lossyPremium {
			d.lossyFactor = rangeFrom(fnvMix(link, 0xb3), 0.8, 1.2)
		}
	} else {
		// Mild downstream (cloud -> edge) evening load.
		d.linkDip = s.dayDraws(&fe.nbCong, fnvFold(s.cfg.Seed, fe.linkKey^0x5555, day), fe.regionFactor*0.3)
	}
	fe.day.Store(d)
	return d
}

// flowHolder singleflights one flow's resolution.
type flowHolder struct {
	once sync.Once
	fe   *flowEntry
	err  error
}

// flowFor returns the cached flow entry for spec, resolving it on first use.
// Hits are lock-free; misses compute once per key.
func (s *Sim) flowFor(spec *TestSpec) (*flowEntry, error) {
	if spec.Server == nil {
		return nil, fmt.Errorf("netsim: nil server")
	}
	key := flowKeyT{region: spec.Region, server: spec.Server.ID, tier: spec.Tier, dir: spec.Dir}
	v, ok := s.flows.Load(key)
	if ok {
		obsFlowHits.Inc()
	} else {
		obsFlowMisses.Inc()
		v, _ = s.flows.LoadOrStore(key, new(flowHolder))
	}
	h := v.(*flowHolder)
	h.once.Do(func() { h.fe, h.err = s.buildFlow(spec) })
	return h.fe, h.err
}

func (s *Sim) buildFlow(spec *TestSpec) (*flowEntry, error) {
	srv := spec.Server
	var choice bgp.EgressChoice
	var err error
	if spec.Dir == Download {
		choice, err = s.router.IngressLink(spec.Region, srv.ASN, srv.City, spec.Tier)
	} else {
		choice, err = s.router.EgressLink(spec.Region, srv.ASN, srv.City, spec.Tier)
	}
	if err != nil {
		return nil, err
	}
	link := choice.Link

	fe := &flowEntry{
		tier:       spec.Tier,
		dir:        spec.Dir,
		flowKey:    uint64(srv.ID),
		rttModel:   s.newRTTModel(spec.Region, srv.ASN, srv.City, choice, spec.Tier),
		regionHash: s.regionHash(spec.Region),
		srvUTC:     srv.UTCOffset,
		linkUTC:    link.UTCOffset,
		srvKey:     serverKey(srv.ID),
		linkKey:    linkKey(link.ID),
		accessMbps: srv.AccessMbps,
		headroom:   link.Headroom,
		baseLoss:   s.cfg.BaseLoss,
	}
	fe.srvCong = s.topo.AS(srv.ASN).Congestion
	fe.nbCong = s.topo.AS(link.Neighbor).Congestion
	fe.aggBase = hashRange(s.cfg.Seed, 500, 1400, fe.srvKey, 0xb2)
	if spec.Tier == bgp.Premium {
		fe.headroom *= s.cfg.PremiumAvailFactor
		fe.baseLoss += s.cfg.PremiumExtraLoss
		if link.Lossy {
			fe.lossyPremium = true
			fe.lossRate = link.LossRate
		}
	}
	return fe, nil
}

// bandwidth is the cached counterpart of pathBandwidth at clock c of day d:
// it reproduces the segment walk's min/sum arithmetic without building the
// segment slice. vmDown/vmUp come from the spec because shaper experiments
// override them per test.
func (fe *flowEntry) bandwidth(s *Sim, d *flowDay, c clock, spec *TestSpec) (availMbps, loss float64) {
	linkDip := dipFrom(d.linkDip, c.local(fe.linkUTC))
	if fe.dir == Download {
		vmDown := spec.VMDownMbps
		if vmDown <= 0 {
			vmDown = s.cfg.VMDownMbps
		}
		ispDip := dipFrom(d.srvDip, c.local(fe.srvUTC))
		agg := fe.aggBase * (1 - ispDip)
		if linkDip > 0.8 {
			linkDip = 0.8
		}
		linkLoss := fe.baseLoss + congestionLoss(fe.nbCong, linkDip)*0.25
		if fe.lossyPremium {
			linkLoss += fe.lossRate * d.lossyFactor
		}
		linkAvail := fe.headroom * (1 - linkDip)

		availMbps = fe.accessMbps
		if agg < availMbps {
			availMbps = agg
		}
		if linkAvail < availMbps {
			availMbps = linkAvail
		}
		if vmDown < availMbps {
			availMbps = vmDown
		}
		loss = congestionLoss(fe.srvCong, ispDip) + linkLoss
	} else {
		vmUp := spec.VMUpMbps
		if vmUp <= 0 {
			vmUp = s.cfg.VMUpMbps
		}
		linkAvail := fe.headroom * (1 - 0.3*linkDip)

		availMbps = vmUp
		if linkAvail < availMbps {
			availMbps = linkAvail
		}
		if fe.accessMbps < availMbps {
			availMbps = fe.accessMbps
		}
		loss = fe.baseLoss
	}
	if loss == 0 {
		loss = s.cfg.BaseLoss
	}
	if loss > 0.9 {
		loss = 0.9
	}
	if availMbps < 0.1 {
		availMbps = 0.1
	}
	return availMbps, loss
}
