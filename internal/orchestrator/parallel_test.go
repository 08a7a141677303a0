package orchestrator

import (
	"reflect"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// inlineAndFannedOut are the two execution paths of a round: a fault-free
// round runs inline at any parallelism, while an active fault profile sends
// it through the per-VM goroutine fan-out. Each must produce its own
// sequential run's bytes.
var inlineAndFannedOut = []struct {
	name, profile string
}{
	{"inline", "none"},
	{"fanned-out", "flaky-vm"},
}

// TestParallelMatchesSequential is the engine's determinism guarantee: a
// campaign run at any parallelism produces the same record stream, counters
// and artifacts as the sequential run. Run with -race it doubles as the
// data-pipeline race test.
func TestParallelMatchesSequential(t *testing.T) {
	for _, path := range inlineAndFannedOut {
		prof, err := faults.Named(path.profile)
		if err != nil {
			t.Fatal(err)
		}
		run := func(parallelism int) (*Report, []analysis.Measurement, []string) {
			f := setup(t)
			sink := newLogSink()
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
				Faults:          prof,
			}, sink)
			if err != nil {
				t.Fatal(err)
			}
			rep.MaxVMCPUUtil = 0 // host telemetry, outside the guarantee
			return rep, records(sink.Log), f.bucket.List("")
		}

		seqRep, seqOut, seqKeys := run(1)
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
			if !reflect.DeepEqual(rep, seqRep) {
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
	for _, path := range inlineAndFannedOut {
		prof, err := faults.Named(path.profile)
		if err != nil {
			t.Fatal(err)
		}
		run := func(parallelism int) float64 {
			f := setup(t)
			_, err := f.orch.Run(Config{
				Region:      "us-west1",
				Servers:     f.topo.Servers()[:9],
				Days:        1,
				Seed:        3,
				Parallelism: parallelism,
				Faults:      prof,
			}, newLogSink())
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
	logs := make([]*LogSink, len(regions))
	var wg sync.WaitGroup
	errs := make([]error, len(regions))
	for i, region := range regions {
		logs[i] = newLogSink()
		wg.Add(1)
		go func(i int, region string) {
			defer wg.Done()
			_, errs[i] = f.orch.Run(Config{
				Region:      region,
				Servers:     servers[:4],
				Days:        1,
				Seed:        int64(i + 1),
				Parallelism: 2,
			}, MultiSink{storeSink, logs[i]})
		}(i, region)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %s: %v", regions[i], err)
		}
	}
	for i := range logs {
		if want := 4 * 24 * 2; logs[i].Log.Len() != want {
			t.Errorf("%s: fanned-out records = %d, want %d", regions[i], logs[i].Log.Len(), want)
		}
	}
	// 4 servers x 2 dirs x 3 regions = 24 series.
	if store.SeriesCount() != 24 {
		t.Errorf("series = %d, want 24", store.SeriesCount())
	}
}
