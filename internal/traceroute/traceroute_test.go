package traceroute

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func newProber(t *testing.T) (*Prober, *topology.Topology) {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 11})
	return NewProber(sim, "us-east1", 11), topo
}

func serverDest(s *topology.Server) Destination {
	return Destination{IP: s.IP, ASN: s.ASN, City: s.City, LinkID: -1, Tier: bgp.Premium}
}

func TestTraceReachesServer(t *testing.T) {
	p, topo := newProber(t)
	srv := topo.Servers()[0]
	res, err := p.Trace(serverDest(srv), Options{FlowID: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("trace did not reach destination: %+v", res)
	}
	last := res.Hops[len(res.Hops)-1]
	if last.IP != srv.IP {
		t.Errorf("last hop %v, want %v", last.IP, srv.IP)
	}
	// TTLs must be sequential from 1.
	for i, h := range res.Hops {
		if h.TTL != i+1 {
			t.Errorf("hop %d has TTL %d", i, h.TTL)
		}
	}
	// Responding hops have increasing RTT.
	prev := -1.0
	for _, h := range res.Hops {
		if !h.Responded {
			continue
		}
		if h.RTTms < prev {
			t.Errorf("RTT decreased at TTL %d", h.TTL)
		}
		prev = h.RTTms
	}
}

func TestParisStableAcrossRuns(t *testing.T) {
	p, topo := newProber(t)
	srv := topo.Servers()[4]
	a, err := p.Trace(serverDest(srv), Options{Mode: Paris, FlowID: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Trace(serverDest(srv), Options{Mode: Paris, FlowID: 9})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Hops) != len(b.Hops) {
		t.Fatalf("paris traces differ in length")
	}
	for i := range a.Hops {
		if a.Hops[i].IP != b.Hops[i].IP {
			t.Errorf("paris trace hop %d differs", i)
		}
	}
}

func TestClassicModeCanOscillate(t *testing.T) {
	p, topo := newProber(t)
	// Across many servers, classic mode must produce at least one trace
	// whose hop set differs from the paris trace (ECMP oscillation).
	differs := false
	for _, srv := range topo.Servers()[:25] {
		paris, err := p.Trace(serverDest(srv), Options{Mode: Paris, FlowID: 5, ResponseLoss: -1})
		if err != nil {
			t.Fatal(err)
		}
		classic, err := p.Trace(serverDest(srv), Options{Mode: Classic, FlowID: 5, ResponseLoss: -1})
		if err != nil {
			t.Fatal(err)
		}
		if len(paris.Hops) != len(classic.Hops) {
			differs = true
			break
		}
		for i := range paris.Hops {
			if paris.Hops[i].IP != classic.Hops[i].IP {
				differs = true
				break
			}
		}
	}
	if !differs {
		t.Error("classic mode never diverged from paris; ECMP modelling inert")
	}
}

// TestResponseLossProducesSilentHops: a hop stays silent when all three of
// its probes are lost, 0.6³ ≈ 0.22 of hops at a per-probe loss of 0.6.
func TestResponseLossProducesSilentHops(t *testing.T) {
	p, topo := newProber(t)
	silent, total := 0, 0
	for _, srv := range topo.Servers()[:40] {
		res, err := p.Trace(serverDest(srv), Options{FlowID: 1, ResponseLoss: 0.6})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range res.Hops {
			total++
			if !h.Responded {
				silent++
			}
		}
		// Destination still reached (servers always respond).
		if !res.Reached {
			t.Errorf("server %d unreached under response loss", srv.ID)
		}
	}
	frac := float64(silent) / float64(total)
	if frac < 0.1 || frac > 0.5 {
		t.Errorf("silent hop fraction %.2f with loss 0.6", frac)
	}
}

func TestTraceToProbeTarget(t *testing.T) {
	p, topo := newProber(t)
	links := topo.VisibleLinks("us-east1")
	l := links[7]
	addr, _ := topo.ProbeTarget(l.ID)
	nb := topo.AS(l.Neighbor)
	res, err := p.Trace(Destination{IP: addr, ASN: l.Neighbor, City: nb.Cities[0], LinkID: l.ID, Tier: bgp.Premium}, Options{FlowID: 2, ResponseLoss: -1})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, h := range res.Hops {
		if h.IP == l.FarIP {
			found = true
		}
	}
	if !found {
		t.Errorf("engineered trace missed far IP of link %d", l.ID)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p, topo := newProber(t)
	var results []Result
	for _, srv := range topo.Servers()[:3] {
		res, err := p.Trace(serverDest(srv), Options{FlowID: 1})
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, results); err != nil {
		t.Fatal(err)
	}
	var got []Result
	for dec := json.NewDecoder(&buf); dec.More(); {
		var r Result
		if err := dec.Decode(&r); err != nil {
			t.Fatal(err)
		}
		got = append(got, r)
	}
	if len(got) != len(results) {
		t.Fatalf("round trip count %d, want %d", len(got), len(results))
	}
	for i := range got {
		if got[i].Dst != results[i].Dst || len(got[i].Hops) != len(results[i].Hops) {
			t.Errorf("result %d mismatch", i)
		}
		for j := range got[i].Hops {
			if got[i].Hops[j].IP != results[i].Hops[j].IP {
				t.Errorf("result %d hop %d mismatch", i, j)
			}
		}
	}
}
