package speedchecker

import (
	"math"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func setup(t *testing.T) (*netsim.Sim, *Platform) {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 5})
	return sim, New(sim)
}

func quickParams() Params {
	return Params{
		Regions:      []string{"europe-west1"},
		SamplesPerVP: 3,
		MinSamples:   6,
	}
}

func TestRunPreliminaryAggregates(t *testing.T) {
	sim, p := setup(t)
	aggs := p.RunPreliminary(quickParams())
	if len(aggs) == 0 {
		t.Fatal("no aggregates produced")
	}
	topo := sim.Topology()
	tiers := map[bgp.Tier]int{}
	for _, a := range aggs {
		if a.Key.Region != "europe-west1" {
			t.Errorf("unexpected region %q", a.Key.Region)
		}
		if a.Samples < 6 {
			t.Errorf("aggregate below MinSamples: %+v", a)
		}
		if a.MedianMs <= 0 || a.MedianMs > 600 {
			t.Errorf("implausible median %v ms", a.MedianMs)
		}
		if topo.AS(a.Key.ASN) == nil {
			t.Errorf("aggregate for unknown AS%d", a.Key.ASN)
		}
		tiers[a.Key.Tier]++
	}
	if tiers[bgp.Premium] == 0 || tiers[bgp.Standard] == 0 {
		t.Errorf("missing a tier: %v", tiers)
	}
}

func TestMinSamplesFilters(t *testing.T) {
	_, p := setup(t)
	params := quickParams()
	params.MinSamples = 1 << 30
	if aggs := p.RunPreliminary(params); len(aggs) != 0 {
		t.Errorf("impossible MinSamples still produced %d aggregates", len(aggs))
	}
}

func TestAggregatesSortedAndDeterministic(t *testing.T) {
	_, p := setup(t)
	a := p.RunPreliminary(quickParams())
	b := p.RunPreliminary(quickParams())
	if len(a) != len(b) {
		t.Fatal("nondeterministic aggregate count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic aggregate %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	for i := 1; i < len(a); i++ {
		x, y := a[i-1].Key, a[i].Key
		if x.Region > y.Region || (x.Region == y.Region && x.ASN > y.ASN) {
			t.Error("aggregates not sorted")
			break
		}
	}
}

func TestDeltasPairTiers(t *testing.T) {
	_, p := setup(t)
	aggs := p.RunPreliminary(quickParams())
	deltas := Deltas(aggs)
	if len(deltas) == 0 {
		t.Fatal("no deltas")
	}
	for _, d := range deltas {
		if math.Abs(d.DeltaMs-(d.StdMs-d.PremMs)) > 1e-9 {
			t.Errorf("delta arithmetic wrong: %+v", d)
		}
		if d.MinCount <= 0 {
			t.Errorf("MinCount = %d", d.MinCount)
		}
	}
	// The WAN-profile classes guarantee all three delta regimes exist at
	// scale; check at least both signs appear.
	pos, neg := false, false
	for _, d := range deltas {
		if d.DeltaMs > 0 {
			pos = true
		}
		if d.DeltaMs < 0 {
			neg = true
		}
	}
	if !pos || !neg {
		t.Errorf("deltas lack sign diversity (pos=%v neg=%v)", pos, neg)
	}
}

func TestDeltasSkipUnpaired(t *testing.T) {
	aggs := []Aggregate{
		{Key: TupleKey{City: "X", ASN: 1, Region: "r", Tier: bgp.Premium}, MedianMs: 10, Samples: 100},
	}
	if d := Deltas(aggs); len(d) != 0 {
		t.Errorf("unpaired aggregate produced deltas: %+v", d)
	}
}
