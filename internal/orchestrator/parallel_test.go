package orchestrator

import (
	"reflect"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// simulatedAndHooked are the two execution paths of a round: purely
// simulated rounds run inline at any parallelism, while a Measure hook —
// here one that only delegates to the simulator — sends them through the
// per-VM goroutine fan-out. Both must produce the sequential run's bytes.
var simulatedAndHooked = []struct {
	name string
	hook func(*netsim.Sim) func(netsim.TestSpec) (netsim.TestResult, error)
}{
	{"simulated", func(*netsim.Sim) func(netsim.TestSpec) (netsim.TestResult, error) { return nil }},
	{"measure-hook", func(sim *netsim.Sim) func(netsim.TestSpec) (netsim.TestResult, error) { return sim.Measure }},
}

// TestParallelMatchesSequential is the engine's determinism guarantee: a
// campaign run at any parallelism produces the same record stream, counters
// and artifacts as the sequential run. Run with -race it doubles as the
// data-pipeline race test.
func TestParallelMatchesSequential(t *testing.T) {
	var simulated []analysis.Measurement
	for _, path := range simulatedAndHooked {
		run := func(parallelism int) (*Report, []analysis.Measurement, []string) {
			f := setup(t)
			sink := &SliceSink{}
			rep, err := f.orch.Run(Config{
				Region:          "us-east1",
				Servers:         f.topo.ServersInCountry("US")[:12],
				Tiers:           []bgp.Tier{bgp.Premium, bgp.Standard},
				Days:            2,
				Seed:            17,
				TestDurationSec: 0.2, // keeps the synthesized captures small
				CaptureEvery:    97,
				TracerouteEvery: 1,
				Parallelism:     parallelism,
				Measure:         path.hook(f.sim),
			}, sink)
			if err != nil {
				t.Fatal(err)
			}
			return rep, sink.Out, f.bucket.List("")
		}

		seqRep, seqOut, seqKeys := run(1)
		if simulated == nil {
			simulated = seqOut
		} else if !reflect.DeepEqual(seqOut, simulated) {
			t.Fatalf("%s: sequential records differ from the simulated path's", path.name)
		}
		for _, parallelism := range []int{4, 16} {
			rep, out, keys := run(parallelism)
			if len(out) != len(seqOut) {
				t.Fatalf("%s, parallelism %d: %d records, want %d", path.name, parallelism, len(out), len(seqOut))
			}
			for i := range out {
				if out[i] != seqOut[i] {
					t.Fatalf("%s, parallelism %d: record %d = %+v, want %+v", path.name, parallelism, i, out[i], seqOut[i])
				}
			}
			if rep.Tests != seqRep.Tests || rep.Hours != seqRep.Hours ||
				rep.VMs != seqRep.VMs || rep.Captures != seqRep.Captures ||
				rep.Traceroutes != seqRep.Traceroutes {
				t.Errorf("%s, parallelism %d: report %+v, want %+v", path.name, parallelism, rep, seqRep)
			}
			if len(keys) != len(seqKeys) {
				t.Fatalf("%s, parallelism %d: %d bucket objects, want %d", path.name, parallelism, len(keys), len(seqKeys))
			}
			for i := range keys {
				if keys[i] != seqKeys[i] {
					t.Errorf("%s, parallelism %d: bucket key %q, want %q", path.name, parallelism, keys[i], seqKeys[i])
				}
			}
		}
	}
}

// TestParallelEgressAccounting verifies the accrued bill is identical at
// any parallelism: egress metering runs in the deterministic emit phase,
// so even the floating-point sums match bit for bit.
func TestParallelEgressAccounting(t *testing.T) {
	for _, path := range simulatedAndHooked {
		run := func(parallelism int) float64 {
			f := setup(t)
			_, err := f.orch.Run(Config{
				Region:      "us-west1",
				Servers:     f.topo.Servers()[:9],
				Days:        1,
				Seed:        3,
				Parallelism: parallelism,
				Measure:     path.hook(f.sim),
			}, &SliceSink{})
			if err != nil {
				t.Fatal(err)
			}
			return f.platform.Costs().EgressUSD
		}
		seq := run(1)
		if seq <= 0 {
			t.Fatalf("%s: no egress accrued", path.name)
		}
		if par := run(4); par != seq {
			t.Errorf("%s: egress at parallelism 4 = %v, want %v", path.name, par, seq)
		}
	}
}

// TestMultiSinkConcurrentFanOut fans records out from concurrent campaigns
// to one shared store sink and, each campaign delivering from its own
// goroutine, a slice sink per campaign.
func TestMultiSinkConcurrentFanOut(t *testing.T) {
	store := tsdb.NewStore()
	storeSink := &StoreSink{Store: store}

	f := setup(t)
	servers := f.topo.Servers()
	regions := []string{"us-east1", "us-west1", "europe-west1"}
	slices := make([]SliceSink, len(regions))
	var wg sync.WaitGroup
	errs := make([]error, len(regions))
	for i, region := range regions {
		wg.Add(1)
		go func(i int, region string) {
			defer wg.Done()
			_, errs[i] = f.orch.Run(Config{
				Region:      region,
				Servers:     servers[:4],
				Days:        1,
				Seed:        int64(i + 1),
				Parallelism: 2,
			}, MultiSink{storeSink, &slices[i]})
		}(i, region)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %s: %v", regions[i], err)
		}
	}
	for i := range slices {
		if want := 4 * 24 * 2; len(slices[i].Out) != want {
			t.Errorf("%s: fanned-out records = %d, want %d", regions[i], len(slices[i].Out), want)
		}
	}
	// 4 servers x 2 dirs x 3 regions = 24 series.
	if store.SeriesCount() != 24 {
		t.Errorf("series = %d, want 24", store.SeriesCount())
	}
}
