package netsim

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func newSim(t *testing.T) *Sim {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return New(topo, nil, Config{Seed: 7})
}

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func TestMeasureDeterminism(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[3]
	spec := TestSpec{Region: "us-west1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: t0.Add(13 * time.Hour)}
	a, err := s.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Measure(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.ThroughputMbps != b.ThroughputMbps || a.RTTms != b.RTTms || a.LossRate != b.LossRate {
		t.Errorf("nondeterministic: %+v vs %+v", a, b)
	}
}

func TestMeasureErrors(t *testing.T) {
	s := newSim(t)
	if _, err := s.Measure(TestSpec{Region: "us-west1", Server: nil, Time: t0}); err == nil {
		t.Error("nil server: want error")
	}
	srv := s.Topology().Servers()[0]
	if _, err := s.Measure(TestSpec{Region: "bogus", Server: srv, Time: t0}); err == nil {
		t.Error("bogus region: want error")
	}
}

func TestDownloadBounds(t *testing.T) {
	s := newSim(t)
	for _, srv := range s.Topology().Servers()[:40] {
		res, err := s.Measure(TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: t0.Add(9 * time.Hour)})
		if err != nil {
			t.Fatalf("server %d: %v", srv.ID, err)
		}
		if res.ThroughputMbps <= 0 || res.ThroughputMbps > 1000*1.6 {
			t.Errorf("server %d download %.1f Mbps out of range", srv.ID, res.ThroughputMbps)
		}
		if res.RTTms <= 0 || res.RTTms > 500 {
			t.Errorf("server %d RTT %.1f ms out of range", srv.ID, res.RTTms)
		}
		if res.LossRate < 0 || res.LossRate > 0.9 {
			t.Errorf("server %d loss %v out of range", srv.ID, res.LossRate)
		}
		if res.Link == nil || len(res.ASPath) < 2 {
			t.Errorf("server %d missing path attribution", srv.ID)
		}
	}
}

func TestUploadNearCap(t *testing.T) {
	s := newSim(t)
	near := 0
	n := 0
	for _, srv := range s.Topology().ServersInCountry("US")[:60] {
		res, err := s.Measure(TestSpec{Region: "us-central1", Server: srv, Tier: bgp.Premium, Dir: Upload, Time: t0.Add(6 * time.Hour), DurationSec: 30})
		if err != nil {
			continue
		}
		n++
		if res.ThroughputMbps > 100*1.6 {
			t.Errorf("upload %.1f exceeds shaped cap band", res.ThroughputMbps)
		}
		if res.ThroughputMbps > 75 {
			near++
		}
	}
	// The paper: "most of the reported upload throughputs were close to
	// the uplink capacity of the measurement VMs (100 Mbps)".
	if float64(near)/float64(n) < 0.7 {
		t.Errorf("only %d/%d uploads near the 100 Mbps cap", near, n)
	}
}

func TestDiurnalCongestionOnProneISP(t *testing.T) {
	s := newSim(t)
	// Find the Cox Las Vegas server: its profile guarantees daytime events.
	var srv *topology.Server
	for _, sv := range s.Topology().Servers() {
		if sv.ASN == 22773 && sv.City == "Las Vegas" {
			srv = sv
			break
		}
	}
	if srv == nil {
		t.Fatal("no Cox Las Vegas server")
	}
	// Over 60 days of hourly samples the min/max spread must show deep
	// dips on some days (V(s,d) > 0.5), and clean days must exist too.
	deepDays, cleanDays := 0, 0
	for d := 0; d < 60; d++ {
		var day []float64
		for h := 0; h < 24; h++ {
			at := t0.Add(time.Duration(d*24+h) * time.Hour)
			res, err := s.Measure(TestSpec{Region: "us-west1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: at})
			if err != nil {
				t.Fatal(err)
			}
			day = append(day, res.ThroughputMbps)
		}
		min, max := slices.Min(day), slices.Max(day)
		v := (max - min) / max
		if v > 0.5 {
			deepDays++
		}
		if v < 0.5 {
			cleanDays++
		}
	}
	if deepDays < 5 {
		t.Errorf("Cox server saw only %d/60 deep-dip days, want >= 5", deepDays)
	}
	if cleanDays < 10 {
		t.Errorf("Cox server saw only %d/60 clean days", cleanDays)
	}
}

func TestPremiumVsStandardVariance(t *testing.T) {
	s := newSim(t)
	servers := s.Topology().ServersInCountry("US")
	var dPrem, dStd []float64
	if len(servers) > 120 {
		servers = servers[:120]
	}
	for _, srv := range servers {
		for h := 0; h < 24; h += 3 {
			at := t0.Add(time.Duration(h) * time.Hour)
			p, err1 := s.Measure(TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: at})
			q, err2 := s.Measure(TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Standard, Dir: Download, Time: at})
			if err1 != nil || err2 != nil {
				continue
			}
			dPrem = append(dPrem, p.ThroughputMbps)
			dStd = append(dStd, q.ThroughputMbps)
		}
	}
	var wp, ws stats.Welford
	for i := range dPrem {
		wp.Add(dPrem[i])
		ws.Add(dStd[i])
	}
	mp, ms := wp.Mean(), ws.Mean()
	// §4.1: the standard tier generally had higher throughput.
	if ms <= mp {
		t.Errorf("standard mean %.1f not above premium mean %.1f", ms, mp)
	}
}

func TestLatencyTopologyServersUnder150ms(t *testing.T) {
	s := newSim(t)
	over := 0
	n := 0
	for _, srv := range s.Topology().ServersInCountry("US") {
		res, err := s.Measure(TestSpec{Region: "us-central1", Server: srv, Tier: bgp.Premium, Dir: Download, Time: t0.Add(8 * time.Hour)})
		if err != nil {
			continue
		}
		n++
		if res.RTTms > 150 {
			over++
		}
	}
	// Fig 4a: over 90% of topology-based measurements had latency < 150ms.
	if frac := float64(over) / float64(n); frac > 0.2 {
		t.Errorf("%.0f%% of US servers above 150ms from us-central1", frac*100)
	}
}

func TestPingRTTStable(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[0]
	r1, err := s.PingRTT("us-west1", srv.ASN, srv.City, bgp.Premium, t0, 1)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := s.PingRTT("us-west1", srv.ASN, srv.City, bgp.Premium, t0, 1)
	if r1 != r2 {
		t.Error("PingRTT not deterministic for same salt")
	}
	if r1 <= 0 || r1 > 400 {
		t.Errorf("PingRTT = %v", r1)
	}
}

// TestPingerMatchesPingRTT: a Pinger is PingRTT with the route lookup and
// the static RTT hoisted, so every probe must agree bit for bit — across
// vantage points, regions, tiers, hours of the day and salts — and the two
// must fail together.
func TestPingerMatchesPingRTT(t *testing.T) {
	s := newSim(t)
	vps := s.Topology().EdgeVPs()
	if len(vps) > 200 {
		vps = vps[:200]
	}
	for _, vp := range vps {
		for _, region := range []string{"us-west1", "europe-west1"} {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				ping, err := s.Pinger(region, vp.ASN, vp.City, tier)
				if err != nil {
					if _, perr := s.PingRTT(region, vp.ASN, vp.City, tier, t0, 0); perr == nil {
						t.Fatalf("Pinger failed (%v) where PingRTT succeeds", err)
					}
					continue
				}
				for i := 0; i < 30; i++ {
					at := t0.Add(time.Duration(i) * 5 * time.Hour)
					salt := uint64(vp.ID)<<20 | uint64(i)<<8 | uint64(tier)
					want, err := s.PingRTT(region, vp.ASN, vp.City, tier, at, salt)
					if err != nil {
						t.Fatal(err)
					}
					if got := ping.RTT(at, salt); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("VP %d %s %v probe %d: Pinger %v, PingRTT %v", vp.ID, region, tier, i, got, want)
					}
				}
			}
		}
	}
	if _, err := s.Pinger("nowhere", vps[0].ASN, vps[0].City, bgp.Premium); err == nil {
		t.Error("Pinger for an unknown region succeeded")
	}
}

func TestWanProfileClassesExist(t *testing.T) {
	s := newSim(t)
	classes := map[string]int{}
	for _, a := range s.Topology().ASes() {
		f, p := s.wanProfile(a.ASN, "europe-west1")
		switch {
		case p > 0:
			classes["penalty"]++
		case f < 0.75:
			classes["fast"]++
		case f >= 0.93:
			classes["comparable"]++
		default:
			classes["mild"]++
		}
	}
	for _, c := range []string{"penalty", "fast", "comparable", "mild"} {
		if classes[c] == 0 {
			t.Errorf("WAN profile class %q never drawn", c)
		}
	}
}

func TestForwardPathStructure(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[5]
	hops, err := s.ForwardPath("us-west1", srv.IP, srv.ASN, srv.City, -1, bgp.Premium, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(hops) < 4 {
		t.Fatalf("too few hops: %d", len(hops))
	}
	// First hops inside the cloud.
	if hops[0].ASN != s.Topology().Cloud.ASN {
		t.Errorf("first hop AS = %d", hops[0].ASN)
	}
	// Exactly one hop carries a link ID (the far side of the border).
	borders := 0
	var borderIdx int
	for i, h := range hops {
		if h.LinkID >= 0 {
			borders++
			borderIdx = i
		}
	}
	if borders != 1 {
		t.Fatalf("found %d border hops, want 1", borders)
	}
	link := s.Topology().Link(hops[borderIdx].LinkID)
	if hops[borderIdx].IP != link.FarIP {
		t.Errorf("border hop IP %v != link far IP %v", hops[borderIdx].IP, link.FarIP)
	}
	// The hop before the border is a cloud border router (inbound
	// interface, not the /30 near side — forward traceroutes never show it).
	if hops[borderIdx-1].ASN != s.Topology().Cloud.ASN {
		t.Errorf("hop before border owned by AS%d, want cloud", hops[borderIdx-1].ASN)
	}
	if hops[borderIdx-1].IP == link.NearIP {
		t.Error("forward path leaked the near-side /30 interface")
	}
	// Last hop is the destination.
	last := hops[len(hops)-1]
	if last.IP != srv.IP || last.ASN != srv.ASN {
		t.Errorf("last hop %v/%d, want %v/%d", last.IP, last.ASN, srv.IP, srv.ASN)
	}
	// RTT must be nondecreasing.
	for i := 1; i < len(hops); i++ {
		if hops[i].RTTms < hops[i-1].RTTms {
			t.Errorf("RTT decreases at hop %d: %v -> %v", i, hops[i-1].RTTms, hops[i].RTTms)
		}
	}
}

func TestForwardPathParisStability(t *testing.T) {
	s := newSim(t)
	srv := s.Topology().Servers()[9]
	a, err := s.ForwardPath("us-east1", srv.IP, srv.ASN, srv.City, -1, bgp.Premium, 7)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.ForwardPath("us-east1", srv.IP, srv.ASN, srv.City, -1, bgp.Premium, 7)
	if len(a) != len(b) {
		t.Fatal("same flow ID gave different lengths")
	}
	for i := range a {
		if a[i].IP != b[i].IP {
			t.Errorf("hop %d differs for same flow ID", i)
		}
	}
	// Different flow IDs may differ (ECMP) but must keep the same border.
	c, _ := s.ForwardPath("us-east1", srv.IP, srv.ASN, srv.City, -1, bgp.Premium, 8)
	var borderA, borderC int
	for i, h := range a {
		if h.LinkID >= 0 {
			borderA = a[i].LinkID
		}
	}
	for i, h := range c {
		if h.LinkID >= 0 {
			borderC = c[i].LinkID
		}
	}
	if borderA != borderC {
		t.Errorf("border changed across flow IDs: %d vs %d", borderA, borderC)
	}
}

func TestForwardPathToProbeTargets(t *testing.T) {
	s := newSim(t)
	topo := s.Topology()
	region := "us-central1"
	ok := 0
	links := topo.VisibleLinks(region)
	if len(links) > 100 {
		links = links[:100]
	}
	for _, l := range links {
		addr, _ := topo.ProbeTarget(l.ID)
		nb := topo.AS(l.Neighbor)
		hops, err := s.ForwardPath(region, addr, l.Neighbor, nb.Cities[0], l.ID, bgp.Premium, 1)
		if err != nil {
			t.Fatalf("probe path to link %d: %v", l.ID, err)
		}
		for _, h := range hops {
			if h.LinkID == l.ID {
				ok++
				break
			}
		}
	}
	if ok < len(links)*9/10 {
		t.Errorf("engineered probes traversed their link only %d/%d times", ok, len(links))
	}
}

func TestVMAddr(t *testing.T) {
	s := newSim(t)
	a := s.VMAddr("us-west1", 0, 1)
	b := s.VMAddr("us-west1", 0, 2)
	c := s.VMAddr("us-east1", 0, 1)
	if a == b || a == c {
		t.Error("VM addresses must be distinct")
	}
	if a.As4()[0] != 15 {
		t.Errorf("VM address %v outside cloud space", a)
	}
}

func TestHashUniformity(t *testing.T) {
	var w stats.Welford
	for i := uint64(0); i < 10000; i++ {
		w.Add(hash01(1, i))
	}
	if math.Abs(w.Mean()-0.5) > 0.02 {
		t.Errorf("hash01 mean = %v", w.Mean())
	}
	// Variance of U(0,1) is 1/12.
	if math.Abs(w.Variance()-1.0/12) > 0.01 {
		t.Errorf("hash01 variance = %v", w.Variance())
	}
}

func TestHashNormMoments(t *testing.T) {
	var w stats.Welford
	for i := uint64(0); i < 20000; i++ {
		w.Add(hashNorm(3, i))
	}
	if math.Abs(w.Mean()) > 0.03 {
		t.Errorf("hashNorm mean = %v", w.Mean())
	}
	if math.Abs(w.StdDev()-1) > 0.05 {
		t.Errorf("hashNorm sd = %v", w.StdDev())
	}
}

func TestDipShape(t *testing.T) {
	if d := dipShape(21, 21, 2); d != 1 {
		t.Errorf("dip at peak = %v", d)
	}
	if d := dipShape(9, 21, 2); d > 0.01 {
		t.Errorf("dip 12h away = %v", d)
	}
	// Wraparound: 23h vs peak 1h is only 2h apart.
	if d := dipShape(23, 1, 2); d < 0.5 {
		t.Errorf("circular dip = %v", d)
	}
}

// TestMeasureConcurrentPurity drives Measure from many goroutines against
// one Sim and checks every result matches a sequential baseline. Run with
// -race this enforces the "pure per call" contract the parallel campaign
// engine depends on.
func TestMeasureConcurrentPurity(t *testing.T) {
	s := newSim(t)
	servers := s.Topology().ServersInCountry("US")[:16]
	specs := make([]TestSpec, 0, len(servers)*4)
	for i, srv := range servers {
		for h := 0; h < 4; h++ {
			dir := Download
			if (i+h)%2 == 1 {
				dir = Upload
			}
			specs = append(specs, TestSpec{
				Region: "us-east1", Server: srv, Tier: bgp.Premium,
				Dir: dir, Time: t0.Add(time.Duration(h*6) * time.Hour),
			})
		}
	}
	want := make([]TestResult, len(specs))
	for i, spec := range specs {
		r, err := s.Measure(spec)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var wg sync.WaitGroup
	errs := make([]error, len(specs))
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range specs {
				r, err := s.Measure(specs[(i+g)%len(specs)])
				if err != nil {
					errs[g] = err
					return
				}
				w := want[(i+g)%len(specs)]
				if r.ThroughputMbps != w.ThroughputMbps || r.RTTms != w.RTTms || r.LossRate != w.LossRate {
					errs[g] = fmt.Errorf("spec %d: concurrent %+v != sequential %+v", (i+g)%len(specs), r, w)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestDirectionString(t *testing.T) {
	if Download.String() != "download" || Upload.String() != "upload" {
		t.Error("Direction.String broken")
	}
}
