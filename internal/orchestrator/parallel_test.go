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
			log := analysis.NewRecordLog()
			rep, err := f.orch.Run(Config{
				Region:          "us-east1",
				Servers:         f.topo.USServers()[:12],
				Tiers:           []bgp.Tier{bgp.Premium, bgp.Standard},
				Days:            2,
				Seed:            17,
				TestDurationSec: 0.2, // keeps the synthesized captures small
				CaptureEvery:    97,
				TracerouteEvery: 1,
				Parallelism:     parallelism,
				Faults:          prof,
			}, log)
			if err != nil {
				t.Fatal(err)
			}
			rep.MaxVMCPUUtil = 0 // host telemetry, outside the guarantee
			return rep, records(log), f.bucket.List("")
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
// any parallelism: the report counts egress bytes in the deterministic emit
// phase, so the bill matches bit for bit.
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
			}, analysis.NewRecordLog())
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

// TestConcurrentCampaignsIndexOneStore runs campaigns concurrently, each
// into its own log, and indexes the finished logs concurrently through one
// shared StoreSink: the store equals every record indexed one at a time.
func TestConcurrentCampaignsIndexOneStore(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()
	regions := []string{"us-east1", "us-west1", "europe-west1"}
	logs := make([]*analysis.RecordLog, len(regions))
	var wg sync.WaitGroup
	errs := make([]error, len(regions))
	for i, region := range regions {
		logs[i] = analysis.NewRecordLog()
		wg.Add(1)
		go func(i int, region string) {
			defer wg.Done()
			_, errs[i] = f.orch.Run(Config{
				Region:      region,
				Servers:     servers[:4],
				Days:        1,
				Seed:        int64(i + 1),
				Parallelism: 2,
			}, logs[i])
		}(i, region)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("campaign %s: %v", regions[i], err)
		}
	}
	store := tsdb.NewStore()
	shared := &StoreSink{Store: store}
	want := tsdb.NewStore()
	oracle := &StoreSink{Store: want}
	for i := range logs {
		if want := 4 * 24 * 2; logs[i].Len() != want {
			t.Errorf("%s: records = %d, want %d", regions[i], logs[i].Len(), want)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			shared.Index(logs[i])
		}(i)
		for _, m := range records(logs[i]) {
			oracle.Record(m)
		}
	}
	wg.Wait()
	checkIndexMatches(t, store, want)
	// 4 servers x 2 dirs x 3 regions = 24 series.
	if store.SeriesCount() != 24 {
		t.Errorf("series = %d, want 24", store.SeriesCount())
	}
}
