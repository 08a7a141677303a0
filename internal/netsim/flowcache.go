package netsim

import (
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// The per-flow route cache. A flow is one (region, server, tier, direction)
// combination; its routing decision and every time-invariant input to the
// RTT and bandwidth models are pure functions of (topology, seed), so they
// are resolved once and reused for the campaign's remaining samples. The
// cached fast path replays exactly the arithmetic of pathRTT/pathBandwidth
// — same operations in the same order — so a warmed Measure is bit-identical
// to a cold one; TestFlowCacheMatchesUncached pins this.

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
	baseRTT      float64 // static partial sum, accumulated in pathRTT's order
	hasDip       bool    // endpoint city and AS resolved
	endCong      topology.CongestionProfile
	endUTC       int
	regionFactor float64
}

// newRTTModel resolves the static inputs of pathRTT for one routed path.
func (s *Sim) newRTTModel(region string, endASN ASN, endCity string, choice bgp.EgressChoice, tier bgp.Tier) rttModel {
	m := rttModel{
		baseRTT:      s.staticRTT(region, endASN, endCity, choice, tier),
		regionFactor: s.cfg.RegionCongestionFactor[region],
	}
	if m.regionFactor == 0 {
		m.regionFactor = 1
	}
	if city, ok := s.topo.CityOf(endCity); ok {
		if endAS := s.topo.AS(endASN); endAS != nil {
			m.hasDip = true
			m.endCong = endAS.Congestion
			m.endUTC = city.UTCOffset
		}
	}
	return m
}

// at is the cached counterpart of pathRTT: baseRTT already holds the static
// partial sum, so only the congestion dip and jitter remain.
func (m *rttModel) at(s *Sim, flowKey uint64, t time.Time) float64 {
	rtt := m.baseRTT
	if m.hasDip {
		dip := s.congestionDip(m.endCong, flowKey, m.endUTC, t, m.regionFactor)
		rtt += dip * s.cfg.QueueDelayMaxMs
	}
	rtt *= clamp(1+0.03*hashNorm(s.cfg.Seed, flowKey, dayOf(t), uint64(t.Hour()), 0xc1), 0.9, 1.15)
	return rtt
}

// flowEntry is the resolved routing decision plus interned static model
// inputs for one flow. Immutable once built.
type flowEntry struct {
	choice  bgp.EgressChoice
	flowKey uint64 // per-flow hash key (the server ID)

	rttModel
	regionHash uint64

	// Bandwidth model.
	srvCong      topology.CongestionProfile
	nbCong       topology.CongestionProfile
	srvUTC       int
	linkUTC      int
	linkID       int
	accessMbps   float64
	aggBase      float64 // download ISP-aggregation capacity before the dip
	headroom     float64 // tier-adjusted interconnect headroom
	baseLoss     float64 // tier-adjusted residual loss
	lossyPremium bool
	lossRate     float64
}

// flowHolder singleflights one flow's resolution.
type flowHolder struct {
	once sync.Once
	fe   *flowEntry
	err  error
}

// flowFor returns the cached flow entry for spec, resolving it on first use.
// Hits are lock-free; misses compute once per key.
func (s *Sim) flowFor(spec TestSpec) (*flowEntry, error) {
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

func (s *Sim) buildFlow(spec TestSpec) (*flowEntry, error) {
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
		choice:     choice,
		flowKey:    uint64(srv.ID),
		rttModel:   s.newRTTModel(spec.Region, srv.ASN, srv.City, choice, spec.Tier),
		regionHash: s.regionHash(spec.Region),
		srvUTC:     srv.UTCOffset,
		linkUTC:    link.UTCOffset,
		linkID:     link.ID,
		accessMbps: srv.AccessMbps,
		headroom:   link.Headroom,
		baseLoss:   s.cfg.BaseLoss,
	}
	fe.srvCong = s.topo.AS(srv.ASN).Congestion
	fe.nbCong = s.topo.AS(link.Neighbor).Congestion
	fe.aggBase = hashRange(s.cfg.Seed, 500, 1400, serverKey(srv.ID), 0xb2)
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

// bandwidthAt is the cached counterpart of pathBandwidth: it reproduces the
// segment walk's min/sum arithmetic without building the segment slice.
// vmDown/vmUp come from the spec because shaper experiments override them
// per test.
func (fe *flowEntry) bandwidthAt(s *Sim, spec TestSpec, t time.Time) (availMbps, loss float64) {
	if spec.Dir == Download {
		vmDown := spec.VMDownMbps
		if vmDown <= 0 {
			vmDown = s.cfg.VMDownMbps
		}
		ispDip := s.congestionDip(fe.srvCong, serverKey(spec.Server.ID), fe.srvUTC, t, fe.regionFactor)
		agg := fe.aggBase * (1 - ispDip)
		linkDip := s.congestionDip(fe.nbCong, linkKey(fe.linkID), fe.linkUTC, t, fe.regionFactor)
		if linkDip > 0.8 {
			linkDip = 0.8
		}
		linkLoss := fe.baseLoss + congestionLoss(fe.nbCong, linkDip)*0.25
		if fe.lossyPremium {
			linkLoss += fe.lossRate * hashRange(s.cfg.Seed, 0.8, 1.2, linkKey(fe.linkID), dayOf(t), 0xb3)
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
		linkDip := s.congestionDip(fe.nbCong, linkKey(fe.linkID)^0x5555, fe.linkUTC, t, fe.regionFactor*0.3)
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
