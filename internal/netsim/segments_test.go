package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
)

// Segment is one capacity-relevant element of a simulated path, ordered
// from the traffic source toward the cloud VM (download: server access, ISP
// aggregation, interconnect, VM NIC) or the server (upload: VM NIC,
// interconnect, server access). PathSegments lists them; pathBandwidth
// folds them into the flow's bottleneck and loss, the uncached reference
// for the flow cache's bandwidth.
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

// segmentsFor resolves the routing for a test as Measure does and returns
// its path segments at the test's time.
func segmentsFor(s *Sim, spec TestSpec) ([]Segment, error) {
	if spec.Server == nil {
		return nil, fmt.Errorf("netsim: nil server")
	}
	choice, err := routeFor(s, spec)
	if err != nil {
		return nil, err
	}
	return s.PathSegments(spec, choice, spec.Time), nil
}

// downloadInterconnect is the index of the interconnect among a download's
// segments.
const downloadInterconnect = 2

func TestSegmentsForDownloadStructure(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[2]
	segs, err := segmentsFor(s, TestSpec{
		Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Download,
		Time: time.Date(2020, 5, 1, 8, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seg := range segs {
		if seg.AvailMbps <= 0 {
			t.Errorf("segment %d has avail %v", i, seg.AvailMbps)
		}
		if seg.Loss < 0 || seg.Loss > 1 {
			t.Errorf("segment %d has loss %v", i, seg.Loss)
		}
	}
	// Server access, ISP aggregation, interconnect, VM NIC.
	if len(segs) != 4 {
		t.Fatalf("%d segments, want 4: %+v", len(segs), segs)
	}
	if segs[0].AvailMbps != srv.AccessMbps || segs[0].Loss != 0 {
		t.Errorf("server-access segment %+v, want the server's %v Mbps access link", segs[0], srv.AccessMbps)
	}
	// The vm-nic segment equals the shaped downlink.
	if segs[3].AvailMbps != 1000 || segs[3].Loss != 0 {
		t.Errorf("vm-nic = %+v, want 1000 Mbps", segs[3])
	}
}

func TestSegmentsForUploadStructure(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[2]
	segs, err := segmentsFor(s, TestSpec{
		Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Upload,
		Time: t0,
	})
	if err != nil {
		t.Fatal(err)
	}
	// VM NIC, interconnect, server access.
	if len(segs) != 3 || segs[0].AvailMbps != 100 || segs[0].Loss != 0 {
		t.Fatalf("upload segments %+v, want the 100 Mbps VM NIC first of 3", segs)
	}
	if segs[2].AvailMbps != srv.AccessMbps {
		t.Errorf("upload last segment: %+v", segs[2])
	}
}

func TestSegmentsMatchMeasureBottleneck(t *testing.T) {
	s := newSim(t)
	// The minimum segment availability must upper-bound the measured
	// throughput (modulo the 1.6x noise clamp).
	for _, srv := range s.Topology().Servers()[:25] {
		spec := TestSpec{Region: "us-central1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: t0.Add(5 * time.Hour)}
		segs, err := segmentsFor(s, spec)
		if err != nil {
			t.Fatal(err)
		}
		min := segs[0].AvailMbps
		for _, seg := range segs {
			if seg.AvailMbps < min {
				min = seg.AvailMbps
			}
		}
		res, err := s.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		if res.ThroughputMbps > min*1.6+1 {
			t.Errorf("server %d: measured %.1f exceeds bottleneck %.1f", srv.ID, res.ThroughputMbps, min)
		}
	}
}

func TestSegmentsForErrors(t *testing.T) {
	s := newSim(t)
	if _, err := segmentsFor(s, TestSpec{Region: "us-east1", Server: nil, Time: t0}); err == nil {
		t.Error("nil server accepted")
	}
	if _, err := segmentsFor(s, TestSpec{Region: "bogus", Server: s.Topology().Servers()[0], Time: t0}); err == nil {
		t.Error("bogus region accepted")
	}
}

func TestLossyLinksPremiumOnly(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	// Find a server whose premium ingress crosses a lossy link.
	for _, srv := range topo.Servers() {
		spec := TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: t0}
		choice, err := routeFor(s, spec)
		if err != nil {
			continue
		}
		l := choice.Link
		if !l.Lossy {
			continue
		}
		link := s.PathSegments(spec, choice, spec.Time)[downloadInterconnect]
		// Premium crosses the lossy port: segment loss must include it.
		if link.Loss < l.LossRate*0.5 {
			t.Errorf("premium lossy link %d: segment loss %.4f < %.4f", l.ID, link.Loss, l.LossRate*0.5)
		}
		// Standard ingress over the same server must not carry that
		// chronic loss (different port or tier exemption).
		stdSpec := TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Standard, Dir: Download, Time: t0}
		stdChoice, err := routeFor(s, stdSpec)
		if err != nil {
			t.Fatal(err)
		}
		if seg := s.PathSegments(stdSpec, stdChoice, t0)[downloadInterconnect]; stdChoice.Link == l && seg.Loss > 0.02 {
			t.Errorf("standard tier carries chronic loss %.4f on link %d", seg.Loss, l.ID)
		}
		return
	}
	t.Skip("no premium path over a lossy link at this scale")
}
