package selection

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/alias"
	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// BenchmarkSelectTopologyPaperScale is one region's topology-based selection
// on the paper-scale topology — ~6.8k pilot traces, bdrmap with alias
// resolution, then a trace to each of ~1.3k US servers — the cold path that
// `report all`, `costs` and `table1` pay per region. The cloud's routes are
// warm after the first iteration, as they are for every region after a
// command's first.
func BenchmarkSelectTopologyPaperScale(b *testing.B) {
	cfg := topology.PaperScaleConfig()
	topo, err := topology.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	sim := netsim.New(topo, nil, netsim.Config{Seed: cfg.Seed})
	mapper := bdrmap.FromTopology(topo, alias.NewProber(topo, cfg.Seed))
	params := TopoParams{Region: "us-east1", Budget: 184, Seed: cfg.Seed}
	if _, err := TopologyBased(sim, mapper, params); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := TopologyBased(sim, mapper, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Selected) == 0 {
			b.Fatal("nothing selected")
		}
	}
}

// BenchmarkSelectTopologyPaperScaleCold is the same selection as a command's
// first region pays for it: every iteration builds a fresh Router and Sim, so
// every cloud route is computed and every link choice misses the cache. The
// topology is built once, outside the timer.
func BenchmarkSelectTopologyPaperScaleCold(b *testing.B) {
	cfg := topology.PaperScaleConfig()
	topo, err := topology.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	mapper := bdrmap.FromTopology(topo, alias.NewProber(topo, cfg.Seed))
	params := TopoParams{Region: "us-east1", Budget: 184, Seed: cfg.Seed}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := netsim.New(topo, nil, netsim.Config{Seed: cfg.Seed})
		res, err := TopologyBased(sim, mapper, params)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Selected) == 0 {
			b.Fatal("nothing selected")
		}
	}
}
