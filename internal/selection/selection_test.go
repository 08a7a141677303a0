package selection

import (
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/speedchecker"
	"github.com/clasp-measurement/clasp/internal/topology"
)

func setup(t *testing.T) (*netsim.Sim, *bdrmap.Mapper) {
	t.Helper()
	cfg := topology.PaperScaleConfig()
	cfg.Scale = 0.1
	topo, err := topology.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: 13})
	mapper := bdrmap.FromTopology(topo, alias.NewProber(topo, 13))
	return sim, mapper
}

func TestTopologyBasedPipeline(t *testing.T) {
	sim, mapper := setup(t)
	res, err := TopologyBased(sim, mapper, TopoParams{Region: "us-east1", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.PilotLinks.LinkCount() < 100 {
		t.Errorf("pilot found %d links", res.PilotLinks.LinkCount())
	}
	if res.ServerLinkCount == 0 {
		t.Fatal("no server-traversed links")
	}
	// Most servers must share links with others (75.5-91.6% in Table 1
	// discussion).
	if res.SharedFraction < 0.5 {
		t.Errorf("shared fraction %.2f, want > 0.5", res.SharedFraction)
	}
	// Selection: one server per link; coverage within (0, 1].
	if len(res.Selected) == 0 {
		t.Fatal("no servers selected")
	}
	cov := res.Coverage()
	if cov <= 0 || cov > 1 {
		t.Errorf("coverage = %v", cov)
	}
	// No duplicate links or servers.
	links := make(map[string]bool)
	servers := make(map[int]bool)
	for _, s := range res.Selected {
		if links[s.FarIP.String()] {
			t.Errorf("link %v selected twice", s.FarIP)
		}
		links[s.FarIP.String()] = true
		if servers[s.Server.ID] {
			t.Errorf("server %d selected twice", s.Server.ID)
		}
		servers[s.Server.ID] = true
		if s.ASHops > 2 {
			t.Errorf("selected server %d with %d AS hops", s.Server.ID, s.ASHops)
		}
		if s.RTTms <= 0 {
			t.Errorf("selected server %d without RTT", s.Server.ID)
		}
	}
}

func TestTopologyBasedPicksShortestPath(t *testing.T) {
	sim, mapper := setup(t)
	res, err := TopologyBased(sim, mapper, TopoParams{Region: "us-west1", Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	// Most selections should be direct peers (1 AS hop), as the paper
	// observed.
	direct := 0
	for _, s := range res.Selected {
		if s.ASHops <= 1 {
			direct++
		}
	}
	if float64(direct) < float64(len(res.Selected))*0.4 {
		t.Errorf("only %d/%d selections directly peer", direct, len(res.Selected))
	}
}

func TestTopologyBasedBudget(t *testing.T) {
	sim, mapper := setup(t)
	res, err := TopologyBased(sim, mapper, TopoParams{Region: "us-central1", Budget: 10, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > 10 {
		t.Errorf("budget exceeded: %d", len(res.Selected))
	}
}

func TestTopologyBasedUnknownRegion(t *testing.T) {
	sim, mapper := setup(t)
	if _, err := TopologyBased(sim, mapper, TopoParams{Region: "nope"}); err == nil {
		t.Error("unknown region: want error")
	}
}

func TestDifferentialBasedSelection(t *testing.T) {
	sim, _ := setup(t)
	p := speedchecker.New(sim)
	aggs := p.RunPreliminary(speedchecker.Params{
		Regions:      []string{"europe-west1"},
		SamplesPerVP: 3,
		MinSamples:   6,
	})
	deltas := speedchecker.Deltas(aggs)
	sel, err := DifferentialBased(sim.Topology(), deltas, DiffParams{
		Region: "europe-west1", Target: 16, MinSamples: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) == 0 {
		t.Fatal("no differential servers selected")
	}
	if len(sel) > 16 {
		t.Errorf("selected %d > target 16", len(sel))
	}
	classes := make(map[DiffClass]int)
	servers := make(map[int]bool)
	for _, s := range sel {
		classes[s.Class]++
		if servers[s.Server.ID] {
			t.Errorf("server %d selected twice", s.Server.ID)
		}
		servers[s.Server.ID] = true
		// Class consistent with delta.
		switch s.Class {
		case Comparable:
			if s.DeltaMs >= 10 || s.DeltaMs <= -10 {
				t.Errorf("comparable server with delta %v", s.DeltaMs)
			}
		case PremiumLower:
			if s.DeltaMs < 50 {
				t.Errorf("premium-lower server with delta %v", s.DeltaMs)
			}
		case StandardLower:
			if s.DeltaMs > -50 {
				t.Errorf("standard-lower server with delta %v", s.DeltaMs)
			}
		}
	}
	if len(classes) < 2 {
		t.Errorf("selection lacks class diversity: %v", classes)
	}
}

func TestDifferentialBasedErrors(t *testing.T) {
	sim, _ := setup(t)
	if _, err := DifferentialBased(sim.Topology(), nil, DiffParams{Region: "nope"}); err == nil {
		t.Error("unknown region: want error")
	}
	sel, err := DifferentialBased(sim.Topology(), nil, DiffParams{Region: "europe-west1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 0 {
		t.Error("selection from no deltas")
	}
}

func TestDiffClassString(t *testing.T) {
	if Comparable.String() != "comparable" || PremiumLower.String() != "premium-lower" || StandardLower.String() != "standard-lower" {
		t.Error("DiffClass.String broken")
	}
}

// TestTopologyBasedParallelMatchesSequential: tracing on four workers, with
// the routing caches filling concurrently, selects field by field what one
// worker does.
func TestTopologyBasedParallelMatchesSequential(t *testing.T) {
	params := TopoParams{Region: "us-east1", Budget: 40, Seed: 13}
	sim, mapper := setup(t)
	want, err := TopologyBased(sim, mapper, params)
	if err != nil {
		t.Fatal(err)
	}
	sim, mapper = setup(t)
	params.Parallelism = 4
	got, err := TopologyBased(sim, mapper, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("at parallelism 4: %d selected over %d links, sequential %d over %d",
			len(got.Selected), got.ServerLinkCount, len(want.Selected), want.ServerLinkCount)
	}
}
