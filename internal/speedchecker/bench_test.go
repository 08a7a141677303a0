package speedchecker

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// BenchmarkPreliminaryScanPaperScale is the differential method's
// preliminary scan of one region on the paper-scale topology: every
// ⟨city, AS⟩ tuple with at least 100 samples, probed over both tiers. It
// runs on one worker, so it measures the scan's work per core. Routing
// trees are warm after the first scan, as they are for every region after
// a command's first.
func BenchmarkPreliminaryScanPaperScale(b *testing.B) {
	cfg := topology.PaperScaleConfig()
	topo, err := topology.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := New(netsim.New(topo, nil, netsim.Config{Seed: cfg.Seed}))
	params := Params{Regions: []string{"us-east1"}, MinSamples: 100, Parallelism: 1}
	if len(p.RunPreliminary(params)) == 0 {
		b.Fatal("no aggregates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.RunPreliminary(params)) == 0 {
			b.Fatal("no aggregates")
		}
	}
}

// BenchmarkPreliminaryScanDifferentialRegions is the scan the differential
// method makes at paper scale: the three differential regions (us-central1,
// us-east1, europe-west1; core.DifferentialRegions) in one call, each probe
// drawn once for all three. One worker, warm routing trees, as
// PreliminaryScanPaperScale; against three of its one-region scans it is
// what the joint scan saves.
func BenchmarkPreliminaryScanDifferentialRegions(b *testing.B) {
	cfg := topology.PaperScaleConfig()
	topo, err := topology.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := New(netsim.New(topo, nil, netsim.Config{Seed: cfg.Seed}))
	params := Params{Regions: []string{"us-central1", "us-east1", "europe-west1"}, MinSamples: 100, Parallelism: 1}
	if len(p.RunPreliminary(params)) == 0 {
		b.Fatal("no aggregates")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(p.RunPreliminary(params)) == 0 {
			b.Fatal("no aggregates")
		}
	}
}
