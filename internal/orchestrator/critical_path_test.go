package orchestrator

import (
	"runtime/metrics"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/someta"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// stopTheWorldPauses returns how many times the runtime has stopped the
// world for anything but garbage collection since the process started.
func stopTheWorldPauses(t *testing.T) uint64 {
	t.Helper()
	sample := []metrics.Sample{{Name: "/sched/pauses/total/other:seconds"}}
	metrics.Read(sample)
	if sample[0].Value.Kind() != metrics.KindFloat64Histogram {
		t.Skipf("runtime does not export %s", sample[0].Name)
	}
	var n uint64
	for _, c := range sample[0].Value.Float64Histogram().Counts {
		n += c
	}
	return n
}

// TestCampaignPathNeverStopsTheWorld guards the campaign path against the
// regression that made a second core cost 70 % wall-clock: host sampling
// through runtime.ReadMemStats stopped the world once per VM-hour. A whole
// campaign, and the collector on its own, must leave the runtime's count of
// non-GC stop-the-world pauses where they found it.
func TestCampaignPathNeverStopsTheWorld(t *testing.T) {
	f := setup(t)
	before := stopTheWorldPauses(t)
	rep, err := f.orch.Run(Config{
		Region:      "us-east1",
		Servers:     f.topo.USServers()[:20],
		Days:        2,
		Seed:        7,
		Parallelism: 2,
	}, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxVMCPUUtil <= 0 {
		t.Fatalf("MaxVMCPUUtil = %v: the campaign took no host snapshots", rep.MaxVMCPUUtil)
	}
	if after := stopTheWorldPauses(t); after != before {
		t.Errorf("a %d-VM, %d-hour campaign stopped the world %d times", rep.VMs, rep.Hours, after-before)
	}

	before = stopTheWorldPauses(t)
	c := someta.NewCollector("vm", nil)
	for i := 0; i < 1000; i++ {
		c.Snap(time.Unix(int64(i), 0))
	}
	if after := stopTheWorldPauses(t); after != before {
		t.Errorf("1000 Collector.Snap calls stopped the world %d times", after-before)
	}
	if s, _ := c.Latest(); s.MemUsedMB <= 0 {
		t.Errorf("snapshot reports %v MB of heap in use", s.MemUsedMB)
	}
}

// TestCaptureEveryTestUploadsOwnSnapshot runs the heaviest capture cadence
// for several days: every uploaded SoMeta object must hold exactly the
// snapshot taken at its own capture — not the collector's history, which by
// then is hundreds of entries long — and the report's MaxVMCPUUtil must
// still be the maximum over everything the campaign sampled.
func TestCaptureEveryTestUploadsOwnSnapshot(t *testing.T) {
	f := setup(t)
	servers := f.topo.Servers()[:2]
	cfg := Config{
		Region:          "us-east1",
		Servers:         servers,
		Days:            3,
		Seed:            3,
		TestDurationSec: 0.002, // keeps the 144 synthesized captures small
		CaptureEvery:    1,
	}
	rep, err := f.orch.Run(cfg, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	if want := len(servers) * 24 * cfg.Days; rep.Captures != want {
		t.Fatalf("captures = %d, want one per download test = %d", rep.Captures, want)
	}
	keys := f.bucket.List("us-east1/someta/")
	// Objects are keyed by (day, server, tier): each day's later captures
	// overwrite the earlier ones.
	if want := len(servers) * cfg.Days; len(keys) != want {
		t.Fatalf("someta objects = %d, want %d", len(keys), want)
	}
	if rep.MaxVMCPUUtil <= 0 || rep.MaxVMCPUUtil > 1 {
		t.Fatalf("MaxVMCPUUtil = %v, want within (0, 1]", rep.MaxVMCPUUtil)
	}
	start := cfg.withDefaults().Start
	for _, key := range keys {
		data, _ := f.bucket.Get(key)
		snaps := decodeSnapshots(t, data)
		if len(snaps) != 1 {
			t.Fatalf("%s holds %d snapshots, want the capture's own", key, len(snaps))
		}
		// The day's last capture of a server is its hour-23 download test.
		hour := snaps[0].Timestamp.Sub(start) / time.Hour
		if hour%24 != 23 {
			t.Errorf("%s: snapshot taken at %v (hour %d of its day), want the day's last capture", key, snaps[0].Timestamp, hour%24)
		}
		if snaps[0].CPUUtil > rep.MaxVMCPUUtil {
			t.Errorf("%s: snapshot CPU %v exceeds the report's maximum %v", key, snaps[0].CPUUtil, rep.MaxVMCPUUtil)
		}
	}
}

// campaignRecords synthesises a campaign-shaped record stream: rounds of
// one download and one upload per server, hour after hour.
func campaignRecords(servers, hours int) []analysis.Measurement {
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	recs := make([]analysis.Measurement, 0, servers*hours*2)
	for h := 0; h < hours; h++ {
		for s := 0; s < servers; s++ {
			for _, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
				recs = append(recs, analysis.Measurement{
					ServerID: s, Region: "us-east1", Tier: bgp.Premium, Dir: dir,
					Time: start.Add(time.Duration(h) * time.Hour),
					Mbps: 300 + float64(h%37), RTTms: 12 + float64(s), Loss: 3e-7,
				})
			}
		}
	}
	return recs
}

// TestStoreSinkRecordDoesNotAllocate pins the index's ingest path at zero
// allocations per record once every series has its handle and its columns
// have grown: no fields map, no boxed lookup key, no per-point object.
func TestStoreSinkRecordDoesNotAllocate(t *testing.T) {
	store := tsdb.NewStore()
	sink := &StoreSink{Store: store}
	// 300 points a series stay under the default seal threshold.
	recs := campaignRecords(8, 300)
	for _, m := range recs { // interns the 16 handles and grows their columns
		sink.Record(m)
	}
	store.DropBefore(recs[len(recs)-1].Time.Add(time.Hour)) // empty, capacity kept
	i := 0
	allocs := testing.AllocsPerRun(len(recs)-1, func() {
		sink.Record(recs[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("StoreSink.Record allocates %v times per record, want 0", allocs)
	}
}
