package netsim

import (
	"fmt"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
)

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
	names := make([]string, len(segs))
	for i, seg := range segs {
		names[i] = seg.Name
		if seg.AvailMbps <= 0 {
			t.Errorf("segment %s has avail %v", seg.Name, seg.AvailMbps)
		}
		if seg.Loss < 0 || seg.Loss > 1 {
			t.Errorf("segment %s has loss %v", seg.Name, seg.Loss)
		}
	}
	want := []string{"server-access", "isp-aggregation", "interconnect", "vm-nic"}
	if len(names) != len(want) {
		t.Fatalf("segments = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("segment %d = %s, want %s", i, names[i], want[i])
		}
	}
	// Only the interconnect segment carries a link ID.
	for _, seg := range segs {
		if (seg.Name == "interconnect") != (seg.LinkID >= 0) {
			t.Errorf("segment %s link ID %d", seg.Name, seg.LinkID)
		}
	}
	// The vm-nic segment equals the shaped downlink.
	if segs[3].AvailMbps != 1000 {
		t.Errorf("vm-nic = %v, want 1000", segs[3].AvailMbps)
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
	if segs[0].Name != "vm-nic" || segs[0].AvailMbps != 100 {
		t.Errorf("upload first segment: %+v", segs[0])
	}
	if segs[len(segs)-1].Name != "server-access" {
		t.Errorf("upload last segment: %+v", segs[len(segs)-1])
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
		segs, err := segmentsFor(s, spec)
		if err != nil {
			continue
		}
		var link *Segment
		for i := range segs {
			if segs[i].Name == "interconnect" {
				link = &segs[i]
			}
		}
		if link == nil || link.LinkID < 0 {
			continue
		}
		l := topo.Link(link.LinkID)
		if l == nil || !l.Lossy {
			continue
		}
		// Premium crosses the lossy port: segment loss must include it.
		if link.Loss < l.LossRate*0.5 {
			t.Errorf("premium lossy link %d: segment loss %.4f < %.4f", l.ID, link.Loss, l.LossRate*0.5)
		}
		// Standard ingress over the same server must not carry that
		// chronic loss (different port or tier exemption).
		stdSegs, err := segmentsFor(s, TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Standard, Dir: Download, Time: t0})
		if err != nil {
			t.Fatal(err)
		}
		for _, seg := range stdSegs {
			if seg.Name == "interconnect" && seg.LinkID == l.ID && seg.Loss > 0.02 {
				t.Errorf("standard tier carries chronic loss %.4f on link %d", seg.Loss, l.ID)
			}
		}
		return
	}
	t.Skip("no premium path over a lossy link at this scale")
}
