package netsim

import (
	"fmt"
	"math"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
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
		if choice, err := routeFor(s, TestSpec{Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: Download}); err != nil || choice.Link == nil || len(choice.Path) < 2 {
			t.Errorf("server %d missing path attribution (%v)", srv.ID, err)
		}
	}
}

func TestUploadNearCap(t *testing.T) {
	s := newSim(t)
	near := 0
	n := 0
	for _, srv := range s.Topology().USServers()[:60] {
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
	servers := s.Topology().USServers()
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
	mp, _ := moments(dPrem)
	ms, _ := moments(dStd)
	// §4.1: the standard tier generally had higher throughput.
	if ms <= mp {
		t.Errorf("standard mean %.1f not above premium mean %.1f", ms, mp)
	}
}

func TestLatencyTopologyServersUnder150ms(t *testing.T) {
	s := newSim(t)
	over := 0
	n := 0
	for _, srv := range s.Topology().USServers() {
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

// TestPingerMatchesPingRTT: a one-region Pinger is PingRTT with the route
// lookup and the static RTT hoisted, so every probe must agree bit for bit
// — across vantage points, regions, tiers, hours of the day and salts — and
// the two must fail together.
func TestPingerMatchesPingRTT(t *testing.T) {
	s := newSim(t)
	vps := s.Topology().EdgeVPs()
	if len(vps) > 200 {
		vps = vps[:200]
	}
	var ping Pinger
	var got [1]float64
	for _, vp := range vps {
		for _, region := range []string{"us-west1", "europe-west1"} {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				errs := ping.Resolve(s, []string{region}, vp.ASN, vp.City, tier)
				if errs != nil {
					if _, perr := s.PingRTT(region, vp.ASN, vp.City, tier, t0, 0); perr == nil {
						t.Fatalf("Pinger failed (%v) where PingRTT succeeds", errs[0])
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
					if ping.RTTs(at, salt, got[:]); math.Float64bits(got[0]) != math.Float64bits(want) {
						t.Fatalf("VP %d %s %v probe %d: Pinger %v, PingRTT %v", vp.ID, region, tier, i, got[0], want)
					}
				}
			}
		}
	}
	if errs := ping.Resolve(s, []string{"nowhere"}, vps[0].ASN, vps[0].City, bgp.Premium); errs == nil || errs[0] == nil {
		t.Error("Pinger for an unknown region succeeded")
	}
}

// TestPingerRegionsMatchOneRegion: a Pinger over several regions draws each
// probe once and applies every region's congestion factor and static RTT,
// so each region's RTT must equal, bit for bit, a one-region Pinger's.
// The regions span the congestion factors (0.65 to 1.45), and the test
// insists on meeting every case the shared draws must keep apart: prone and
// daytime endpoints, an endpoint without a dip (an unknown city, which the
// standard tier still routes), a probe day on which one region sees an
// event and another does not, and a region whose route does not resolve,
// whose slot must stay untouched.
func TestPingerRegionsMatchOneRegion(t *testing.T) {
	s := newSim(t)
	regions := []string{"us-west1", "us-central1", "nowhere", "us-east4", "europe-west1"}
	const unrouted = 2
	type endpointCase struct {
		asn  ASN
		city string
	}
	var cases []endpointCase
	for _, vp := range s.Topology().EdgeVPs()[:300] {
		cases = append(cases, endpointCase{vp.ASN, vp.City})
	}
	cases = append(cases, endpointCase{cases[0].asn, "no-such-city"})

	var prone, daytime, noDip, mixed, probes int
	var joint Pinger
	single := make([]Pinger, len(regions))
	var one [1]float64
	for _, ec := range cases {
		for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
			errs := joint.Resolve(s, regions, ec.asn, ec.city, tier)
			if errs == nil || errs[unrouted] == nil {
				t.Fatalf("%+v %v: the unknown region routed", ec, tier)
			}
			routed := 0
			for r, region := range regions {
				oneErrs := single[r].Resolve(s, []string{region}, ec.asn, ec.city, tier)
				if (oneErrs == nil) != (errs[r] == nil) {
					t.Fatalf("%+v %s %v: joint route error %v, one-region %v", ec, region, tier, errs[r], oneErrs)
				}
				if errs[r] == nil {
					routed++
				}
			}
			if routed == 0 {
				continue
			}
			switch {
			case !joint.hasDip:
				noDip++
			case joint.endCong.Daytime:
				daytime++
			case joint.endCong.Prone:
				prone++
			}
			out := make([]float64, len(regions))
			for i := 0; i < 40; i++ {
				at := t0.Add(time.Duration(i)*7*time.Hour + time.Duration(ec.asn)*time.Minute)
				salt := uint64(ec.asn)<<20 | uint64(i)<<8 | uint64(tier)
				out[unrouted] = -1
				joint.RTTs(at, salt, out)
				probes++
				if out[unrouted] != -1 {
					t.Fatalf("the unrouted region's slot was written: %v", out[unrouted])
				}
				for r := range regions {
					if errs[r] != nil {
						continue
					}
					single[r].RTTs(at, salt, one[:])
					if math.Float64bits(out[r]) != math.Float64bits(one[0]) {
						t.Fatalf("%+v %s %v probe %d: joint %v, one-region %v", ec, regions[r], tier, i, out[r], one[0])
					}
				}
				if joint.hasDip {
					c := clockOf(at)
					var day dayDraw
					s.drawDay(&day, &joint.endCong, fnvFold(s.cfg.Seed, salt, c.day))
					events := 0
					for r := range regions {
						if errs[r] == nil && day.u < day.dayProb*joint.regions[r].regionFactor {
							events++
						}
					}
					if events > 0 && events < routed {
						mixed++
					}
				}
			}
		}
	}
	t.Logf("%d probes: %d prone, %d daytime, %d dip-free endpoint cases, %d probe days with an event in some regions only",
		probes, prone, daytime, noDip, mixed)
	if prone == 0 || daytime == 0 || noDip == 0 || mixed == 0 {
		t.Fatal("a case the shared draws must keep apart never occurred")
	}
}

// TestClockOfMatchesTimeClock: clockOf reads the hour and minute off the
// Unix seconds; they must be what time.Time.Clock reads, at every minute
// of the preliminary scan's window and of a 153-day campaign, at odd
// seconds and nanoseconds within the minute, and before the epoch.
func TestClockOfMatchesTimeClock(t *testing.T) {
	viaClock := func(t time.Time) clock {
		h, m, _ := t.Clock()
		return clock{day: dayOf(t), hour: uint64(h), hm: float64(h) + float64(m)/60}
	}
	check := func(at time.Time) {
		t.Helper()
		if got, want := clockOf(at), viaClock(at); got != want {
			t.Fatalf("clockOf(%v) = %+v, time.Clock gives %+v", at, got, want)
		}
	}
	campaign := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	windows := []struct {
		start time.Time
		span  time.Duration
	}{
		{campaign.Add(-30 * 24 * time.Hour), 14 * 24 * time.Hour}, // the differential scan
		{campaign, 153 * 24 * time.Hour},
	}
	for _, w := range windows {
		for at := w.start; at.Before(w.start.Add(w.span)); at = at.Add(time.Minute) {
			check(at)
			check(at.Add(59*time.Second + 999999999))
		}
	}
	for _, at := range []time.Time{
		time.Unix(-1, 0).UTC(),
		time.Unix(-86400*3-3661, 5).UTC(),
		time.Date(1969, 7, 20, 20, 17, 40, 0, time.UTC),
	} {
		h, m, _ := at.Clock()
		if c := clockOf(at); c.hour != uint64(h) || c.hm != float64(h)+float64(m)/60 {
			t.Fatalf("clockOf(%v) = %+v, time.Clock gives %02d:%02d", at, c, h, m)
		}
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

// borderHops returns the indices of the hops that are the far side of an
// interconnect.
func borderHops(t *testing.T, s *Sim, hops []Hop) []int {
	t.Helper()
	far := map[netip.Addr]bool{}
	for _, l := range s.Topology().Links() {
		far[l.FarIP] = true
	}
	var out []int
	for i, h := range hops {
		if far[h.IP] {
			out = append(out, i)
		}
	}
	return out
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
	// The first hop is the region's cloud gateway.
	if gw := cloudRouterIP(1, uint64(s.regionHash("us-west1"))%250); hops[0].IP != gw {
		t.Errorf("first hop %v, want the cloud gateway %v", hops[0].IP, gw)
	}
	// Exactly one hop is the far side of an interconnect, and it is the
	// far side of the link the route crosses.
	choice, err := s.router.EgressLink("us-west1", srv.ASN, srv.City, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	borderIdx := borderHops(t, s, hops)
	if len(borderIdx) != 1 {
		t.Fatalf("found %d border hops, want 1", len(borderIdx))
	}
	link := choice.Link
	if hops[borderIdx[0]].IP != link.FarIP {
		t.Errorf("border hop IP %v != link far IP %v", hops[borderIdx[0]].IP, link.FarIP)
	}
	// The hop before the border is the cloud border router's inbound
	// interface, not the /30 near side — forward traceroutes never show it.
	if before := hops[borderIdx[0]-1].IP; before != cloudRouterIP(3, uint64(link.ID)) {
		t.Errorf("hop before border is %v, want the cloud border router", before)
	}
	// Last hop is the destination.
	if last := hops[len(hops)-1]; last.IP != srv.IP {
		t.Errorf("last hop %v, want %v", last.IP, srv.IP)
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
	borderA, borderC := borderHops(t, s, a), borderHops(t, s, c)
	if len(borderA) != 1 || len(borderC) != 1 || a[borderA[0]].IP != c[borderC[0]].IP {
		t.Errorf("border changed across flow IDs: hops %v vs %v", borderA, borderC)
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
			if h.IP == l.FarIP {
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
	a := s.VMAddr("us-west1")
	if a != s.VMAddr("us-west1") || a == s.VMAddr("us-east1") {
		t.Error("a region's VM address must be its own")
	}
	if a.As4()[0] != 15 {
		t.Errorf("VM address %v outside cloud space", a)
	}
}

// moments returns the mean and the unbiased variance of xs, in two passes.
func moments(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs)-1)
}

func TestHashUniformity(t *testing.T) {
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = hash01(1, uint64(i))
	}
	mean, variance := moments(xs)
	if math.Abs(mean-0.5) > 0.02 {
		t.Errorf("hash01 mean = %v", mean)
	}
	// Variance of U(0,1) is 1/12.
	if math.Abs(variance-1.0/12) > 0.01 {
		t.Errorf("hash01 variance = %v", variance)
	}
}

func TestHashNormMoments(t *testing.T) {
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = hashNorm(3, uint64(i))
	}
	mean, variance := moments(xs)
	if math.Abs(mean) > 0.03 {
		t.Errorf("hashNorm mean = %v", mean)
	}
	if sd := math.Sqrt(variance); math.Abs(sd-1) > 0.05 {
		t.Errorf("hashNorm sd = %v", sd)
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

// TestDayDrawsMatchesFullFold: a day's draws taken one key off the folded
// (seed, entity, day) prefix equal the per-draw folds of hash01 and
// hashRange, bit for bit, for every profile kind.
func TestDayDrawsMatchesFullFold(t *testing.T) {
	s := newSim(t)
	seed := s.cfg.Seed
	profiles := []topology.CongestionProfile{
		{PeakHourLocal: 21, PeakDepth: 0.2},
		{Prone: true, PeakHourLocal: 20, PeakDepth: 0.9},
		{Prone: true, Daytime: true, PeakHourLocal: 13, PeakDepth: 0.7},
	}
	congested := 0
	for _, p := range profiles {
		for key := uint64(0); key < 200; key++ {
			for day := uint64(18383); day < 18393; day++ {
				got := s.dayDraws(&p, fnvFold(seed, key, day), 1.3)
				dayProb := s.cfg.CongestionDayProbBase
				if p.Prone {
					dayProb = s.cfg.CongestionDayProbProne
				}
				want := dipDay{
					peak:  float64(p.PeakHourLocal) + hashRange(seed, -5, 5, key, day, 0xd2),
					depth: p.PeakDepth * s.cfg.OffDayDepthFactor,
					sigma: s.cfg.EveningSigmaHours,
				}
				if p.Daytime {
					want.sigma = s.cfg.DaytimeSigmaHours
				}
				if hash01(seed, key, day, 0xd1) < dayProb*1.3 {
					want.depth = p.PeakDepth * hashRange(seed, 0.85, 1.1, key, day, 0xd3)
					congested++
				}
				if got != want {
					t.Fatalf("%+v key %d day %d: dayDraws %+v, full fold %+v", p, key, day, got, want)
				}
			}
		}
	}
	if congested == 0 {
		t.Fatal("no congested day drawn: the depth draw went unchecked")
	}
}

// TestMeasureConcurrentPurity drives Measure from many goroutines against
// one Sim and checks every result matches a sequential baseline. Run with
// -race this enforces the "pure per call" contract the parallel campaign
// engine depends on.
func TestMeasureConcurrentPurity(t *testing.T) {
	s := newSim(t)
	servers := s.Topology().USServers()[:16]
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
