package bdrmap

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
	"github.com/clasp-measurement/clasp/internal/traceroute"
)

type fixture struct {
	topo   *topology.Topology
	sim    *netsim.Sim
	prober *traceroute.Prober
	mapper *Mapper
	region string
}

func setup(t *testing.T) *fixture {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 21})
	region := "us-east1"
	return &fixture{
		topo:   topo,
		sim:    sim,
		prober: traceroute.NewProber(sim, region, 21),
		mapper: FromTopology(topo, alias.NewProber(topo, 21)),
		region: region,
	}
}

// pilotTraces traces to every visible link's engineered probe target.
func (f *fixture) pilotTraces(t *testing.T, limit int) []traceroute.Result {
	t.Helper()
	var traces []traceroute.Result
	links := f.topo.VisibleLinks(f.region)
	if limit > 0 && len(links) > limit {
		links = links[:limit]
	}
	for _, l := range links {
		addr, ok := f.topo.ProbeTarget(l.ID)
		if !ok {
			continue
		}
		nb := f.topo.AS(l.Neighbor)
		res, err := f.prober.Trace(traceroute.Destination{
			IP: addr, ASN: l.Neighbor, City: nb.Cities[0], LinkID: l.ID, Tier: bgp.Premium,
		}, traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(l.ID)})
		if err != nil {
			t.Fatalf("trace to link %d: %v", l.ID, err)
		}
		traces = append(traces, res)
	}
	return traces
}

func TestInferRecoversLinks(t *testing.T) {
	f := setup(t)
	traces := f.pilotTraces(t, 0)
	res, err := f.mapper.Infer(f.region, traces)
	if err != nil {
		t.Fatal(err)
	}
	visible := len(f.topo.VisibleLinks(f.region))
	// Response loss hides a few links per run; the bulk must be found.
	if res.LinkCount() < visible*85/100 {
		t.Errorf("inferred %d links of %d visible", res.LinkCount(), visible)
	}
	if res.Traces != len(traces) {
		t.Errorf("Traces = %d, want %d", res.Traces, len(traces))
	}
}

func TestInferredOwnersCorrect(t *testing.T) {
	f := setup(t)
	traces := f.pilotTraces(t, 0)
	res, err := f.mapper.Infer(f.region, traces)
	if err != nil {
		t.Fatal(err)
	}
	// Index ground truth by far IP.
	truth := make(map[string]ASN)
	for _, l := range f.topo.Links() {
		truth[l.FarIP.String()] = l.Neighbor
	}
	wrong, viaNext := 0, 0
	for _, l := range res.Links {
		want, ok := truth[l.FarIP.String()]
		if !ok {
			t.Errorf("inferred link at %v does not exist", l.FarIP)
			continue
		}
		if l.Neighbor != want {
			wrong++
		}
		if l.ViaNextHop {
			viaNext++
		}
		if l.Evidence < 1 {
			t.Errorf("link %v has no evidence", l.FarIP)
		}
	}
	if frac := float64(wrong) / float64(len(res.Links)); frac > 0.02 {
		t.Errorf("%.1f%% of inferred owners wrong", frac*100)
	}
	// The cloud-space-numbered fraction must be inferred via next hop.
	if viaNext == 0 {
		t.Error("no links inferred via next-hop heuristic; the hard case never exercised")
	}
}

func TestNeighborsList(t *testing.T) {
	f := setup(t)
	traces := f.pilotTraces(t, 120)
	res, err := f.mapper.Infer(f.region, traces)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Links) == 0 {
		t.Fatal("no neighbors inferred")
	}
	for _, l := range res.Links {
		if f.topo.AS(l.Neighbor) == nil {
			t.Errorf("inferred unknown neighbor AS%d", l.Neighbor)
		}
	}
}

func TestAliasGroupingPopulatesRouters(t *testing.T) {
	f := setup(t)
	traces := f.pilotTraces(t, 0)
	res, err := f.mapper.Infer(f.region, traces)
	if err != nil {
		t.Fatal(err)
	}
	withRouter := 0
	routers := make(map[int][]Link)
	for _, l := range res.Links {
		if l.Router >= 0 {
			withRouter++
			routers[l.Router] = append(routers[l.Router], l)
		}
	}
	if withRouter < len(res.Links)/2 {
		t.Errorf("only %d/%d links grouped into routers", withRouter, len(res.Links))
	}
	// All links of one inferred router must share a neighbor.
	multi := 0
	for _, ls := range routers {
		if len(ls) > 1 {
			multi++
			for _, l := range ls[1:] {
				if l.Neighbor != ls[0].Neighbor {
					t.Errorf("router mixes neighbors %d and %d", l.Neighbor, ls[0].Neighbor)
				}
			}
		}
	}
	if multi == 0 {
		t.Error("no multi-interface routers recovered")
	}
}

func TestInferFromServerTraces(t *testing.T) {
	f := setup(t)
	// Trace to US servers (the Table 1 second column: links traversed by
	// all US test servers).
	var traces []traceroute.Result
	for _, s := range f.topo.ServersInCountry("US") {
		res, err := f.prober.Trace(traceroute.Destination{
			IP: s.IP, ASN: s.ASN, City: s.City, LinkID: -1, Tier: bgp.Premium,
		}, traceroute.Options{Mode: traceroute.Paris, FlowID: uint64(s.ID)})
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, res)
	}
	res, err := f.mapper.Infer(f.region, traces)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCount() == 0 {
		t.Fatal("no links from server traces")
	}
	// Server-bound traffic concentrates on far fewer links than the pilot
	// found (75-92 % of servers share interconnections, §4).
	if res.LinkCount() >= len(traces) {
		t.Errorf("links (%d) not shared across servers (%d)", res.LinkCount(), len(traces))
	}
}

func TestInferEmptyAndNilSafety(t *testing.T) {
	f := setup(t)
	res, err := f.mapper.Infer(f.region, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.LinkCount() != 0 {
		t.Error("links from no traces")
	}
	m := New(15169, nil, nil)
	if _, err := m.Infer("r", nil); err == nil {
		t.Error("nil table: want error")
	}
}

func TestInferWithoutResolver(t *testing.T) {
	f := setup(t)
	m := FromTopology(f.topo, nil)
	res, err := m.Infer(f.region, f.pilotTraces(t, 50))
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range res.Links {
		if l.Router != -1 {
			t.Error("router set without a resolver")
		}
	}
}
