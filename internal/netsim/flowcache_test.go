package netsim

import (
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/tcpmodel"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// measureUncached recomputes a Measure result through the original per-call
// path — route resolution plus pathRTT/pathBandwidth — with no flow cache.
// The flow cache must be bit-identical to this.
func measureUncached(t *testing.T, s *Sim, spec TestSpec) TestResult {
	t.Helper()
	if spec.DurationSec <= 0 {
		spec.DurationSec = 15
	}
	choice, err := routeFor(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	rtt := s.pathRTT(spec.Region, spec.Server.ASN, spec.Server.City, choice, spec.Tier, spec.Time, uint64(spec.Server.ID))
	avail, loss := s.pathBandwidth(spec, choice, spec.Time)
	tput := tcpmodel.Throughput(tcpmodel.FlowParams{
		RTTms:          rtt,
		Loss:           loss,
		BottleneckMbps: avail,
		DurationSec:    spec.DurationSec,
		Streams:        s.cfg.ParallelStreams,
	})
	sigma := s.cfg.NoiseSigmaPremium
	if spec.Tier == bgp.Standard {
		sigma = s.cfg.NoiseSigmaStandard
	}
	n := hashNorm(s.cfg.Seed, s.regionHash(spec.Region), uint64(spec.Server.ID), dayOf(spec.Time), uint64(spec.Time.Hour()), uint64(spec.Dir), uint64(spec.Tier), 0xa1)
	tput *= clamp(1+sigma*n, 0.4, 1.6)
	return TestResult{
		ThroughputMbps: tput,
		RTTms:          rtt,
		LossRate:       loss,
	}
}

// routeFor resolves the interconnect a test crosses: the ingress link of a
// download, the egress link of an upload.
func routeFor(s *Sim, spec TestSpec) (bgp.EgressChoice, error) {
	if spec.Dir == Download {
		return s.router.IngressLink(spec.Region, spec.Server.ASN, spec.Server.City, spec.Tier)
	}
	return s.router.EgressLink(spec.Region, spec.Server.ASN, spec.Server.City, spec.Tier)
}

// sameResult reports whether two results agree in every field, bit for bit.
func sameResult(a, b TestResult) bool {
	return a.ThroughputMbps == b.ThroughputMbps && a.RTTms == b.RTTms && a.LossRate == b.LossRate
}

// sameRoute reports whether a cached flow entry was built from the route the
// uncached path resolves for spec: the interconnect it keys its dips on, and
// the RTT model of the AS path.
func sameRoute(t *testing.T, s *Sim, fe *flowEntry, spec TestSpec) bool {
	t.Helper()
	choice, err := routeFor(s, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv := spec.Server
	return fe.linkKey == linkKey(choice.Link.ID) && fe.linkUTC == choice.Link.UTCOffset &&
		fe.rttModel == s.newRTTModel(spec.Region, srv.ASN, srv.City, choice, spec.Tier) &&
		fe.dir == spec.Dir && fe.tier == spec.Tier
}

// slotGap is the spacing of a VM's 17 hourly test slots (the orchestrator's
// time.Hour / (TestsPerVMPerHour+1)), so the sweeps below visit the minute
// offsets a campaign's tests carry.
const slotGap = time.Hour / 18

// sweepHours steps across four day boundaries and back: the day record must
// be replaced going forward and going back, never served for another day.
var sweepHours = []int{0, 5, 23, 24, 30, 47, 48, 72 + 13, 24 + 5, 3, 24*9 + 13, 48 + 1, 24*9 + 14, 24 * 9, 0}

// TestFlowCacheMatchesUncached holds the three routes to a measurement —
// Measure by spec, MeasureFlow by handle and the uncached recomputation — to
// one another bit for bit, over servers, tiers, directions and times:
// repeated hits on one day's record, day boundaries crossed in both
// directions, and the minute offset of every VM slot. The servers include a
// chronically lossy premium port and daytime- and evening-profile networks,
// so every field of the day record is exercised.
func TestFlowCacheMatchesUncached(t *testing.T) {
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := New(topo, nil, Config{Seed: 7})
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-east1", "us-west1"}

	// The first dozen servers, plus the first server of each kind the dozen
	// may lack.
	servers := topo.Servers()
	const base = 12
	picked := slices.Clone(servers[:base])
	kinds := map[string]func(fe *flowEntry) bool{
		"lossy premium port":       func(fe *flowEntry) bool { return fe.lossyPremium },
		"daytime-profile server":   func(fe *flowEntry) bool { return fe.srvCong.Daytime && fe.srvCong.Prone },
		"evening-profile server":   func(fe *flowEntry) bool { return !fe.srvCong.Daytime && fe.srvCong.Prone },
		"daytime-profile neighbor": func(fe *flowEntry) bool { return fe.nbCong.Daytime },
	}
	for name, is := range kinds {
		found := false
		for _, srv := range servers {
			fe, err := sim.flowFor(&TestSpec{Region: regions[0], Server: srv, Tier: bgp.Premium, Dir: Download})
			if err == nil && is(fe) {
				picked, found = append(picked, srv), true
				break
			}
		}
		if !found {
			t.Fatalf("no server with a %s: the sweep would not cover it", name)
		}
	}

	checked := 0
	for _, region := range regions {
		for _, srv := range picked {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				for _, dir := range []Direction{Download, Upload} {
					var flow Flow
					for _, dh := range sweepHours {
						spec := TestSpec{
							Region: region, Server: srv, Tier: tier, Dir: dir,
							Time: start.Add(time.Duration(dh)*time.Hour + time.Duration(checked%17)*slotGap),
						}
						want := measureUncached(t, sim, spec)
						bySpec, err := sim.Measure(spec)
						if err != nil {
							t.Fatal(err)
						}
						byHandle, err := sim.MeasureFlow(&flow, &spec)
						if err != nil {
							t.Fatal(err)
						}
						for route, got := range map[string]TestResult{"Measure": bySpec, "MeasureFlow": byHandle} {
							if !sameResult(got, want) {
								t.Fatalf("%s srv%d %v %v at %v: %s = %+v, uncached = %+v",
									region, srv.ID, tier, dir, spec.Time, route, got, want)
							}
						}
						fe, err := sim.flowFor(&spec)
						if err != nil {
							t.Fatal(err)
						}
						if flow.fe != fe || !sameRoute(t, sim, fe, spec) {
							t.Fatalf("%s srv%d %v %v: the cached flow's route differs from the uncached one", region, srv.ID, tier, dir)
						}
						checked++
					}
				}
			}
		}
	}
	if checked < 17 {
		t.Fatalf("%d specs checked: not every slot offset was visited", checked)
	}
}

// TestSharedFlowInterleavedDays is the day record under contention: 16
// goroutines measure the same flows — one shared flowEntry each, as two
// campaigns of one region share them in `report all` — every goroutine on a
// different day at any moment, half by spec and half by handle, so the
// record is replaced continuously while others read it. Everyone must see
// the values a lone goroutine computes on a simulator of its own. Run under
// -race this pins the atomic publish.
func TestSharedFlowInterleavedDays(t *testing.T) {
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var specs []TestSpec
	for _, srv := range topo.Servers()[:3] {
		for _, dir := range []Direction{Download, Upload} {
			for i := 0; i < 40; i++ {
				specs = append(specs, TestSpec{
					Region: "us-east1", Server: srv, Tier: bgp.Premium, Dir: dir,
					Time: start.Add(time.Duration(i%5)*24*time.Hour + time.Duration(i)*time.Hour + time.Duration(i%17)*slotGap),
				})
			}
		}
	}
	want := make([]TestResult, len(specs))
	alone := New(topo, nil, Config{Seed: 7})
	for i, spec := range specs {
		if want[i], err = alone.Measure(spec); err != nil {
			t.Fatal(err)
		}
	}

	sim := New(topo, alone.Router(), Config{Seed: 7})
	const goroutines = 16
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			flows := map[flowKeyT]*Flow{}
			// Each goroutine starts at its own offset, so at any moment the
			// goroutines ask one flow for different days.
			for n := range specs {
				i := (n + g*7) % len(specs)
				spec := specs[i]
				var got TestResult
				var err error
				if g%2 == 0 {
					got, err = sim.Measure(spec)
				} else {
					key := flowKeyT{region: spec.Region, server: spec.Server.ID, tier: spec.Tier, dir: spec.Dir}
					if flows[key] == nil {
						flows[key] = new(Flow)
					}
					got, err = sim.MeasureFlow(flows[key], &spec)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !sameResult(got, want[i]) {
					t.Errorf("goroutine %d spec %d: %+v, want %+v", g, i, got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMeasureConcurrentCold races many goroutines into a cold simulator —
// flow cache, route trees and link cache all populate under contention —
// and asserts everyone observes the same values. Run under -race this pins
// the lock-free fast paths.
func TestMeasureConcurrentCold(t *testing.T) {
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	servers := topo.Servers()
	if len(servers) > 8 {
		servers = servers[:8]
	}
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var specs []TestSpec
	for i, srv := range servers {
		for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
			for _, dir := range []Direction{Download, Upload} {
				specs = append(specs, TestSpec{
					Region: "us-east1", Server: srv, Tier: tier, Dir: dir,
					Time: start.Add(time.Duration(i) * time.Hour),
				})
			}
		}
	}

	sim := New(topo, nil, Config{Seed: 7})
	const goroutines = 8
	results := make([][]TestResult, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]TestResult, len(specs))
			for i, spec := range specs {
				res, err := sim.Measure(spec)
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = res
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		for i := range specs {
			a, b := results[0][i], results[g][i]
			if !sameResult(a, b) {
				t.Fatalf("goroutine %d spec %d diverged: %+v vs %+v", g, i, a, b)
			}
		}
	}
	for i, spec := range specs {
		if fe, err := sim.flowFor(&spec); err != nil || !sameRoute(t, sim, fe, spec) {
			t.Fatalf("spec %d: the flow built under contention has the wrong route (%v)", i, err)
		}
	}
}
