package netsim

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// The hot-path benchmarks behind `make bench` / BENCH_hotpath.json.
// BenchmarkMeasureWarm is the steady-state campaign cost: routing and flow
// caches populated, 4 concurrent workers per proc (the shape a fanned-out
// round produces at Parallelism >= 4).

var (
	benchOnce  sync.Once
	benchTopo  *topology.Topology
	benchSpecs []TestSpec
)

func benchSetup(b *testing.B) (*topology.Topology, []TestSpec) {
	b.Helper()
	benchOnce.Do(func() {
		topo, err := topology.New(topology.DefaultConfig())
		if err != nil {
			panic(err)
		}
		benchTopo = topo
		start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
		servers := topo.Servers()
		if len(servers) > 24 {
			servers = servers[:24]
		}
		i := 0
		for _, srv := range servers {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				for _, dir := range []Direction{Download, Upload} {
					benchSpecs = append(benchSpecs, TestSpec{
						Region: "us-east1", Server: srv, Tier: tier, Dir: dir,
						Time: start.Add(time.Duration(i%48) * time.Hour),
					})
					i++
				}
			}
		}
	})
	if benchTopo == nil {
		b.Fatal("bench topology failed to build")
	}
	return benchTopo, benchSpecs
}

// BenchmarkMeasureCold includes route-tree computation: a fresh router and
// simulator per iteration, so every Measure pays the full path resolution.
func BenchmarkMeasureCold(b *testing.B) {
	topo, specs := benchSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := New(topo, nil, Config{Seed: 7})
		if _, err := sim.Measure(specs[i%len(specs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMeasureWarm is the steady-state cost after the first round: all
// routing state cached, four goroutines per proc measuring concurrently.
func BenchmarkMeasureWarm(b *testing.B) {
	topo, specs := benchSetup(b)
	sim := New(topo, nil, Config{Seed: 7})
	for _, sp := range specs {
		if _, err := sim.Measure(sp); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % len(specs)
			if _, err := sim.Measure(specs[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureWarmObs is BenchmarkMeasureWarm with the obs registry
// enabled: the delta between the two is the metrics-enabled overhead on the
// steady-state campaign path, recorded side by side in BENCH_hotpath.json
// (budget: within 5% — the latency histogram's 1-in-16 sampling and the
// flow-cache counter atomics are sized for that).
func BenchmarkMeasureWarmObs(b *testing.B) {
	topo, specs := benchSetup(b)
	sim := New(topo, nil, Config{Seed: 7})
	for _, sp := range specs {
		if _, err := sim.Measure(sp); err != nil {
			b.Fatal(err)
		}
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	var next atomic.Int64
	b.ReportAllocs()
	b.SetParallelism(4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) % len(specs)
			if _, err := sim.Measure(specs[i]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMeasureFlow is the campaign's own path: one goroutine measuring
// through caller-owned handles, each flow once an hour at its VM slot's
// minute offset, hour after hour — so every 24th visit of a flow rolls its
// day record over and that cost is in the number. No sync.Map lookup, no
// TestSpec copy. It is sequential where BenchmarkMeasureWarm runs four
// goroutines per proc: compare the two at -cpu 1.
func BenchmarkMeasureFlow(b *testing.B) {
	topo, specs := benchSetup(b)
	sim := New(topo, nil, Config{Seed: 7})
	specs = slices.Clone(specs)
	flows := make([]Flow, len(specs))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, hour := i%len(specs), i/len(specs)
		specs[f].Time = start.Add(time.Duration(hour)*time.Hour + time.Duration(f%17)*slotGap)
		if _, err := sim.MeasureFlow(&flows[f], &specs[f]); err != nil {
			b.Fatal(err)
		}
	}
}
