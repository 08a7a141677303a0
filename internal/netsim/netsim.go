// Package netsim is the flow-level network simulator CLASP measures
// against. It composes the synthetic topology and BGP tier policies into
// end-to-end path properties — round-trip time, available bandwidth, and
// loss — that vary over virtual time with the diurnal load model, and runs
// modelled TCP speed tests over those paths.
//
// Everything is deterministic in the seed: a measurement at (server,
// region, tier, direction, time) always yields the same result.
//
// A Sim is safe for concurrent use. Measure, PingRTT, ForwardPath and the
// segment helpers are pure per call for their callers: every stochastic
// choice is a hash of (seed, key...), the Sim's own fields are read-only
// after New, and the shared caches — the BGP router's route trees and link
// choices, and the Sim's per-flow cache with its per-day records
// (flowcache.go) — serve hits as lock-free reads and hold only pure
// functions of (topology, seed, key), so filling, replacing or racing on
// one never changes a value. The parallel campaign engine in
// internal/orchestrator relies on this to fan hourly rounds out across
// goroutines without changing any measured value.
package netsim

import (
	"slices"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/tcpmodel"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// ASN aliases the topology AS number type.
type ASN = topology.ASN

// Direction of a throughput test relative to the cloud VM.
type Direction int

// Test directions.
const (
	// Download transfers from the speed test server to the cloud VM
	// (cloud ingress; the paper's primary congestion findings are here).
	Download Direction = iota
	// Upload transfers from the cloud VM to the speed test server
	// (cloud egress, capped at the VM's 100 Mbps shaped uplink).
	Upload
)

// String implements fmt.Stringer.
func (d Direction) String() string {
	if d == Download {
		return "download"
	}
	return "upload"
}

// Config tunes the simulator. Zero values are replaced by defaults in New.
type Config struct {
	Seed int64

	// VM NIC shaping, mirroring the paper's tc setup (§3.2).
	VMDownMbps float64 // default 1000
	VMUpMbps   float64 // default 100

	// BaseLoss is the residual loss rate of a clean path.
	BaseLoss float64 // default 3e-7

	// PremiumAvailFactor scales interconnect headroom on the premium
	// tier (its egress ports carry more aggregated Google traffic).
	PremiumAvailFactor float64 // default 0.77
	// PremiumExtraLoss is the additional residual loss on premium-tier
	// interconnects; §4.1 traces the standard tier's higher throughput to
	// loss on the premium egress ports.
	PremiumExtraLoss float64 // default 1.5e-7
	// NoiseSigmaPremium / NoiseSigmaStandard are the lognormal sigma of
	// per-test throughput noise; the standard tier (public Internet) is
	// noisier (§4.1: "higher throughput but higher variance").
	NoiseSigmaPremium  float64 // default 0.08
	NoiseSigmaStandard float64 // default 0.17

	// Congestion-event realisation probabilities per day.
	CongestionDayProbProne float64 // default 0.26
	CongestionDayProbBase  float64 // default 0.03
	// OffDayDepthFactor scales the dip on non-event days.
	OffDayDepthFactor float64 // default 0.3
	// Dip widths in hours.
	EveningSigmaHours float64 // default 2.2
	DaytimeSigmaHours float64 // default 3.5

	// QueueDelayMaxMs is the added queueing RTT at a fully realised dip.
	QueueDelayMaxMs float64 // default 35

	// RegionCongestionFactor scales event probability per region
	// (us-west1 showed the least congestion, us-east4 the most; Fig. 2).
	RegionCongestionFactor map[string]float64

	// ParallelStreams is the number of concurrent TCP connections a
	// speed test opens (default 6, matching web speed test clients).
	ParallelStreams int

	// PerASHopMs is the per-AS-hop processing/queueing RTT cost.
	PerASHopMs float64 // default 0.8
	// WANStretchFactor scales the great-circle public-Internet RTT for
	// the leg carried on the cloud's private WAN.
	// (Per-pair variation is drawn around it.)
	WANStretchFactor float64 // default 0.82
}

// DefaultConfig returns the calibrated simulator configuration.
func DefaultConfig(seed int64) Config {
	return Config{
		Seed:                   seed,
		VMDownMbps:             1000,
		VMUpMbps:               100,
		BaseLoss:               3e-7,
		PremiumAvailFactor:     0.77,
		PremiumExtraLoss:       1.5e-7,
		NoiseSigmaPremium:      0.08,
		NoiseSigmaStandard:     0.17,
		CongestionDayProbProne: 0.26,
		CongestionDayProbBase:  0.03,
		OffDayDepthFactor:      0.3,
		EveningSigmaHours:      2.2,
		DaytimeSigmaHours:      3.5,
		QueueDelayMaxMs:        35,
		RegionCongestionFactor: map[string]float64{
			"us-west1":     0.65,
			"us-west2":     0.9,
			"us-west4":     1.35,
			"us-east1":     1.0,
			"us-east4":     1.45,
			"us-central1":  1.15,
			"europe-west1": 1.0,
		},
		ParallelStreams:  6,
		PerASHopMs:       0.8,
		WANStretchFactor: 0.82,
	}
}

// Sim is the network simulator.
type Sim struct {
	topo   *topology.Topology
	router *bgp.Router
	cfg    Config

	// regionHashes interns the FNV hash of every region name so hot-path
	// hash keys need no per-call string walk.
	regionHashes map[string]uint64
	// flows caches per-(region, server, tier, dir) routing decisions and
	// static model inputs; see flowcache.go.
	flows sync.Map
}

// New creates a simulator over the topology. A nil router is constructed
// internally.
func New(t *topology.Topology, r *bgp.Router, cfg Config) *Sim {
	if r == nil {
		r = bgp.NewRouter(t)
	}
	d := DefaultConfig(cfg.Seed)
	if cfg.VMDownMbps == 0 {
		cfg.VMDownMbps = d.VMDownMbps
	}
	if cfg.VMUpMbps == 0 {
		cfg.VMUpMbps = d.VMUpMbps
	}
	if cfg.BaseLoss == 0 {
		cfg.BaseLoss = d.BaseLoss
	}
	if cfg.PremiumAvailFactor == 0 {
		cfg.PremiumAvailFactor = d.PremiumAvailFactor
	}
	if cfg.PremiumExtraLoss == 0 {
		cfg.PremiumExtraLoss = d.PremiumExtraLoss
	}
	if cfg.NoiseSigmaPremium == 0 {
		cfg.NoiseSigmaPremium = d.NoiseSigmaPremium
	}
	if cfg.NoiseSigmaStandard == 0 {
		cfg.NoiseSigmaStandard = d.NoiseSigmaStandard
	}
	if cfg.CongestionDayProbProne == 0 {
		cfg.CongestionDayProbProne = d.CongestionDayProbProne
	}
	if cfg.CongestionDayProbBase == 0 {
		cfg.CongestionDayProbBase = d.CongestionDayProbBase
	}
	if cfg.OffDayDepthFactor == 0 {
		cfg.OffDayDepthFactor = d.OffDayDepthFactor
	}
	if cfg.EveningSigmaHours == 0 {
		cfg.EveningSigmaHours = d.EveningSigmaHours
	}
	if cfg.DaytimeSigmaHours == 0 {
		cfg.DaytimeSigmaHours = d.DaytimeSigmaHours
	}
	if cfg.QueueDelayMaxMs == 0 {
		cfg.QueueDelayMaxMs = d.QueueDelayMaxMs
	}
	if cfg.RegionCongestionFactor == nil {
		cfg.RegionCongestionFactor = d.RegionCongestionFactor
	}
	if cfg.ParallelStreams == 0 {
		cfg.ParallelStreams = d.ParallelStreams
	}
	if cfg.PerASHopMs == 0 {
		cfg.PerASHopMs = d.PerASHopMs
	}
	if cfg.WANStretchFactor == 0 {
		cfg.WANStretchFactor = d.WANStretchFactor
	}
	s := &Sim{topo: t, router: r, cfg: cfg}
	s.regionHashes = make(map[string]uint64, len(t.Regions))
	for _, reg := range t.Regions {
		s.regionHashes[reg.Name] = regionKey(reg.Name)
	}
	return s
}

// regionHash returns the interned hash of a region name, falling back to
// computing it for names outside the topology.
func (s *Sim) regionHash(region string) uint64 {
	if h, ok := s.regionHashes[region]; ok {
		return h
	}
	return regionKey(region)
}

// Topology returns the simulated Internet.
func (s *Sim) Topology() *topology.Topology { return s.topo }

// Router returns the BGP router.
func (s *Sim) Router() *bgp.Router { return s.router }

// TestSpec describes one speed test run from a region against a server.
type TestSpec struct {
	Region      string
	Server      *topology.Server
	Tier        bgp.Tier
	Dir         Direction
	Time        time.Time // virtual UTC timestamp
	DurationSec float64   // default 15
	// VMDownMbps / VMUpMbps override the configured NIC shaping when > 0.
	VMDownMbps float64
	VMUpMbps   float64
	// Attempt is the 0-based retry attempt of this execution. It never
	// enters the measurement arithmetic — results are identical at any
	// value — but the fault layer keys per-attempt decisions on it so a
	// retried test can deterministically succeed (see internal/faults).
	Attempt int
}

// TestResult is the outcome the speed test UI would report.
type TestResult struct {
	ThroughputMbps float64
	RTTms          float64
	LossRate       float64
}

// Measure runs one modelled speed test. The flow's routing decision and
// static model inputs come from the per-flow cache, so a steady-state call
// does no path walk and no allocation.
func (s *Sim) Measure(spec TestSpec) (TestResult, error) {
	timed := startMeasureTimer()
	fe, err := s.flowFor(&spec)
	if err != nil {
		return TestResult{}, err
	}
	res := s.measure(fe, &spec)
	timed.observe()
	return res, nil
}

// Flow is a caller-owned handle on one (region, server, tier, direction)
// flow: Measure with the flow-cache lookup done once, for a caller that
// measures the same flow again and again, as a campaign does every hour.
// The zero value is an unresolved handle. A Flow is not safe for concurrent
// use; the flow entry it points to is.
type Flow struct {
	fe *flowEntry
}

// MeasureFlow is Measure through f. The first call resolves f from spec —
// the flow cache counts it a hit or a miss, as it would for Measure — and
// every later call counts one hit and reads only the spec's Time,
// DurationSec and VM caps: spec must keep naming the flow f was resolved
// for. Both entries run the same arithmetic on the same flow entry, so the
// results agree bit for bit.
func (s *Sim) MeasureFlow(f *Flow, spec *TestSpec) (TestResult, error) {
	timed := startMeasureTimer()
	if f.fe == nil {
		fe, err := s.flowFor(spec)
		if err != nil {
			return TestResult{}, err
		}
		f.fe = fe
	} else {
		obsFlowHits.Inc()
	}
	res := s.measure(f.fe, spec)
	timed.observe()
	return res, nil
}

// measure is the one measurement body, reached by spec or by handle: the
// time-varying arithmetic of a resolved flow at the spec's time.
func (s *Sim) measure(fe *flowEntry, spec *TestSpec) TestResult {
	c := clockOf(spec.Time)
	d := fe.dayFor(s, c.day)
	dur := spec.DurationSec
	if dur <= 0 {
		dur = 15
	}

	endDip := 0.0
	if fe.hasDip {
		endDip = dipFrom(d.endDip, c.local(fe.endUTC))
	}
	rtt := fe.rtt(s, endDip, jitterFactor(normFrom(fnvMix(fnvMix(d.jitter, c.hour), 0xc1))))
	avail, loss := fe.bandwidth(s, d, c, spec)

	tput := tcpmodel.Throughput(tcpmodel.FlowParams{
		RTTms:          rtt,
		Loss:           loss,
		BottleneckMbps: avail,
		DurationSec:    dur,
		Streams:        s.cfg.ParallelStreams,
	})
	// Per-test multiplicative measurement noise. The hash key includes the
	// region so two regions measuring the same server in the same hour
	// draw independent noise.
	sigma := s.cfg.NoiseSigmaPremium
	if fe.tier == bgp.Standard {
		sigma = s.cfg.NoiseSigmaStandard
	}
	n := normFrom(fnvMix(fnvMix(fnvMix(fnvMix(d.noise, c.hour), uint64(fe.dir)), uint64(fe.tier)), 0xa1))
	tput *= clamp(1+sigma*n, 0.4, 1.6)

	return TestResult{
		ThroughputMbps: tput,
		RTTms:          rtt,
		LossRate:       loss,
	}
}

// Segment is one capacity-relevant element of a simulated path, ordered
// from the traffic source toward the cloud VM (download: server access, ISP
// aggregation, interconnect, VM NIC) or the server (upload: VM NIC,
// interconnect, server access). PathSegments lists them; pathBandwidth
// folds them into the flow's bottleneck and loss.
type Segment struct {
	AvailMbps float64
	Loss      float64 // loss contributed by this segment
}

// PathSegments decomposes the path of a test into its capacity segments at
// the given time. The first segment is nearest the remote endpoint.
func (s *Sim) PathSegments(spec TestSpec, choice bgp.EgressChoice, t time.Time) []Segment {
	srv := spec.Server
	link := choice.Link
	regionFactor := s.cfg.RegionCongestionFactor[spec.Region]
	if regionFactor == 0 {
		regionFactor = 1
	}
	vmDown, vmUp := spec.VMDownMbps, spec.VMUpMbps
	if vmDown <= 0 {
		vmDown = s.cfg.VMDownMbps
	}
	if vmUp <= 0 {
		vmUp = s.cfg.VMUpMbps
	}

	srvAS := s.topo.AS(srv.ASN)
	srvCity, _ := s.topo.CityOf(srv.City)
	linkCity, _ := s.topo.CityOf(link.City)
	nbAS := s.topo.AS(link.Neighbor)

	baseLoss := s.cfg.BaseLoss
	if spec.Tier == bgp.Premium {
		baseLoss += s.cfg.PremiumExtraLoss
	}

	headroom := link.Headroom
	if spec.Tier == bgp.Premium {
		headroom *= s.cfg.PremiumAvailFactor
	}

	var segs []Segment
	if spec.Dir == Download {
		// Server access link.
		segs = append(segs, Segment{AvailMbps: srv.AccessMbps})

		// ISP access-aggregation: the per-server congestion signal
		// (keyed by server so distinct servers of one ISP behave like
		// the paper's distinct pairs), at the server's local time.
		ispDip := s.congestionDip(srvAS.Congestion, serverKey(srv.ID), srvCity.UTCOffset, t, regionFactor)
		agg := hashRange(s.cfg.Seed, 500, 1400, serverKey(srv.ID), 0xb2) * (1 - ispDip)
		segs = append(segs, Segment{AvailMbps: agg, Loss: congestionLoss(srvAS.Congestion, ispDip)})

		// Interdomain link into the cloud, modulated by the neighbor's
		// profile at the facility's local time. The congestion dips live
		// on the upstream (edge -> core) direction: the paper's download
		// tests crossed them while uploads stayed near the cap. Ports are
		// provisioned with more slack than access aggregation, so the dip
		// is capped and couples weakly into loss; the server-specific
		// ISP-aggregation dip above is the dominant congestion signal.
		linkDip := s.congestionDip(nbAS.Congestion, linkKey(link.ID), linkCity.UTCOffset, t, regionFactor)
		if linkDip > 0.8 {
			linkDip = 0.8
		}
		linkLoss := baseLoss + congestionLoss(nbAS.Congestion, linkDip)*0.25
		// Chronically lossy interconnects: the §4.1 pathology lives on
		// the private-interconnect ports the premium tier rides; the
		// standard tier's transit ingress does not cross them.
		if link.Lossy && spec.Tier == bgp.Premium {
			linkLoss += link.LossRate * hashRange(s.cfg.Seed, 0.8, 1.2, linkKey(link.ID), dayOf(t), 0xb3)
		}
		segs = append(segs, Segment{AvailMbps: headroom * (1 - linkDip), Loss: linkLoss})

		// VM NIC shaping (tc).
		segs = append(segs, Segment{AvailMbps: vmDown})
	} else {
		segs = append(segs, Segment{AvailMbps: vmUp})
		// Mild downstream (cloud -> edge) evening load.
		linkDip := s.congestionDip(nbAS.Congestion, linkKey(link.ID)^0x5555, linkCity.UTCOffset, t, regionFactor*0.3)
		segs = append(segs, Segment{AvailMbps: headroom * (1 - 0.3*linkDip), Loss: baseLoss})
		segs = append(segs, Segment{AvailMbps: srv.AccessMbps})
	}
	return segs
}

// pathBandwidth computes the bandwidth available to the test flow and the
// path loss rate at the given time.
func (s *Sim) pathBandwidth(spec TestSpec, choice bgp.EgressChoice, t time.Time) (availMbps, loss float64) {
	segs := s.PathSegments(spec, choice, t)
	availMbps = segs[0].AvailMbps
	for _, seg := range segs {
		if seg.AvailMbps < availMbps {
			availMbps = seg.AvailMbps
		}
		loss += seg.Loss
	}
	// Upload paths carry at least the clean-path base loss.
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

// pathRTT models the round-trip time between a region VM and an endpoint
// (asn, city) through the chosen interconnect under a tier policy.
func (s *Sim) pathRTT(region string, endASN ASN, endCity string, choice bgp.EgressChoice, tier bgp.Tier, t time.Time, flowKey uint64) float64 {
	rtt := s.staticRTT(region, endASN, endCity, choice, tier)
	// Queueing delay under congestion at the endpoint's local time.
	endCityRec, ok := s.topo.CityOf(endCity)
	if ok {
		srvAS := s.topo.AS(endASN)
		if srvAS != nil {
			regionFactor := s.cfg.RegionCongestionFactor[region]
			if regionFactor == 0 {
				regionFactor = 1
			}
			dip := s.congestionDip(srvAS.Congestion, flowKey, endCityRec.UTCOffset, t, regionFactor)
			rtt += dip * s.cfg.QueueDelayMaxMs
		}
	}
	// Small jitter.
	rtt *= clamp(1+0.03*hashNorm(s.cfg.Seed, flowKey, dayOf(t), uint64(t.Hour()), 0xc1), 0.9, 1.15)
	return rtt
}

// staticRTT is the time-invariant portion of pathRTT: propagation, WAN
// policy, and per-hop processing. The flow cache stores this partial sum so
// steady-state calls skip the geometry entirely; the accumulation order
// here must not change, or cached and uncached results diverge.
func (s *Sim) staticRTT(region string, endASN ASN, endCity string, choice bgp.EgressChoice, tier bgp.Tier) float64 {
	reg, _ := s.topo.Region(region)
	regCoord, _ := s.topo.CityCoord(reg.City)
	endCoord, ok := s.topo.CityCoord(endCity)
	if !ok {
		endCoord = regCoord
	}
	linkCoord := choice.Link.Coord
	if !choice.Link.CoordOK {
		linkCoord = regCoord
	}

	// Edge leg: endpoint to the interconnect facility over the public
	// Internet, plus fixed access delay.
	rtt := 2.0 + geo.RTTMs(endCoord, linkCoord)
	// Cloud leg: facility to the region over the private WAN. Per
	// (AS, region) pairs differ in WAN efficiency; some pairs carry a
	// cold-potato routing penalty that makes the premium tier slower
	// (the "standard lower latency" class in Fig. 5c).
	wanLeg := geo.RTTMs(linkCoord, regCoord)
	if tier == bgp.Premium {
		wf, penalty := s.wanProfile(endASN, region)
		rtt += wanLeg*wf + penalty
	} else {
		rtt += wanLeg
	}
	// Per-AS-hop processing.
	rtt += float64(len(choice.Path)) * s.cfg.PerASHopMs
	return rtt
}

// wanProfile returns the premium-tier WAN stretch factor (relative to the
// public-Internet stretch) and additive penalty for an (AS, region) pair.
func (s *Sim) wanProfile(asn ASN, region string) (factor, penaltyMs float64) {
	key := []uint64{uint64(asn), s.regionHash(region), 0xe1}
	r := hash01(s.cfg.Seed, key...)
	switch {
	case r < 0.25:
		// Private WAN clearly faster (premium lower latency class).
		return hashRange(s.cfg.Seed, 0.55, 0.72, key...), 0
	case r < 0.60:
		// Comparable (within a few ms on typical distances).
		return hashRange(s.cfg.Seed, 0.93, 1.0, key...), 0
	case r < 0.85:
		// Mildly faster.
		return s.cfg.WANStretchFactor, 0
	default:
		// Cold-potato detour: premium slower by tens of ms.
		return 1.0, hashRange(s.cfg.Seed, 40, 90, key...)
	}
}

// PingRTT returns an unloaded-latency measurement (as a traceroute or
// Speedchecker probe would see) between a region and an endpoint AS/city
// over the given tier. flowSalt decorrelates repeated probes.
func (s *Sim) PingRTT(region string, endASN ASN, endCity string, tier bgp.Tier, t time.Time, flowSalt uint64) (float64, error) {
	choice, err := s.router.IngressLink(region, endASN, endCity, tier)
	if err != nil {
		return 0, err
	}
	return s.pathRTT(region, endASN, endCity, choice, tier, t, flowSalt), nil
}

// Pinger is PingRTT from one or more regions toward one endpoint over one
// tier, with each region's route lookup and static RTT resolved once: a
// scan that probes the same endpoint many times pays for the ingress
// decisions and the path geometry on the first probe only. Everything a
// probe draws — its clock, the endpoint's day, the dip's shape and the
// jitter — is keyed by the probe's salt, not by the region, so RTTs draws it
// once and applies only each region's congestion factor and static RTT; a
// one-region Pinger runs the same arithmetic. Every region's RTT agrees bit
// for bit with PingRTT's.
type Pinger struct {
	sim *Sim
	endpoint
	regions []pingRegion
}

// pingRegion is one region of a Pinger; routed is false where the region's
// route did not resolve.
type pingRegion struct {
	regionRTT
	routed bool
}

// Resolve points p at (endASN, endCity) over tier from each of regions,
// resolving the route PingRTT would take from each; p's region storage is
// reused, so a scan that resolves one Pinger per job allocates none once it
// has grown. errs is nil when every route resolved; otherwise errs[i] is
// region i's error, or nil where its route resolved.
func (p *Pinger) Resolve(s *Sim, regions []string, endASN ASN, endCity string, tier bgp.Tier) (errs []error) {
	p.sim, p.endpoint = s, s.endpointOf(endASN, endCity)
	p.regions = slices.Grow(p.regions[:0], len(regions))[:len(regions)]
	for i, region := range regions {
		choice, err := s.router.IngressLink(region, endASN, endCity, tier)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(regions))
			}
			errs[i] = err
			p.regions[i] = pingRegion{}
			continue
		}
		p.regions[i] = pingRegion{s.newRegionRTT(region, endASN, endCity, choice, tier), true}
	}
	return errs
}

// RTTs is one probe at virtual time t from every region: out[i] is region
// i's RTT, left as it was where the region's route did not resolve.
// flowSalt decorrelates repeated probes.
func (p *Pinger) RTTs(t time.Time, flowSalt uint64, out []float64) {
	s := p.sim
	c := clockOf(t)
	prefix := fnvFold(s.cfg.Seed, flowSalt, c.day)
	var day dayDraw
	shape := 0.0
	if p.hasDip {
		s.drawDay(&day, &p.endCong, prefix)
		shape = dipShape(c.local(p.endUTC), day.peak, day.sigma)
	}
	jitter := jitterFactor(normFrom(fnvMix(fnvMix(prefix, c.hour), 0xc1)))
	for i := range p.regions {
		r := &p.regions[i]
		if !r.routed {
			continue
		}
		dip := 0.0
		if p.hasDip {
			dip = clampDip(day.depth(r.regionFactor) * shape)
		}
		out[i] = r.rtt(s, dip, jitter)
	}
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func serverKey(id int) uint64 { return 0x530000000000 + uint64(id) }
func linkKey(id int) uint64   { return 0x110000000000 + uint64(id) }
func regionKey(r string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(r); i++ {
		h ^= uint64(r[i])
		h *= fnvPrime
	}
	return h
}
