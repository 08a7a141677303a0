package orchestrator

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/faults"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// runFaultCampaign runs one small campaign on a fresh substrate and returns
// the JSON-encoded measurement stream plus the report.
func runFaultCampaign(t *testing.T, profile string, seed int64, parallelism int) ([]byte, *Report) {
	t.Helper()
	f := setup(t)
	prof, err := faults.Named(profile)
	if err != nil {
		t.Fatal(err)
	}
	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:  "us-east1",
		Servers: f.topo.USServers()[:6],
		Days:    1,
		Seed:    seed,
		// Packet capture dominates campaign wall-clock (~160ms per
		// full-size capture); a sparse stride of short ones still pins
		// capture ordering and the capture-vs-fault interaction without
		// slowing the -race run.
		TestDurationSec: 0.2,
		CaptureEvery:    48,
		Parallelism:     parallelism,
		Faults:          prof,
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(records(log))
	if err != nil {
		t.Fatal(err)
	}
	// MaxVMCPUUtil is a goroutine-pressure proxy sampled from the host
	// runtime (see someta.Collector) — real telemetry, not part of the
	// deterministic measurement set. Normalise it so report comparisons
	// pin exactly the fields the determinism guarantee covers.
	rep.MaxVMCPUUtil = 0
	return enc, rep
}

// TestFaultProfileNoneBitIdentical pins the layer's headline guarantee: a
// campaign under the "none" profile (and under a zero Profile, the default
// for configs that never mention faults) is bit-identical to one that never
// touches the fault machinery, and reports zero resilience events.
func TestFaultProfileNoneBitIdentical(t *testing.T) {
	zero, repZero := runFaultCampaign(t, "", 99, 2)
	none, repNone := runFaultCampaign(t, "none", 99, 2)

	if !bytes.Equal(zero, none) {
		t.Error("measurement stream differs between zero profile and named none profile")
	}
	if !reflect.DeepEqual(repZero, repNone) {
		t.Errorf("reports differ: %+v vs %+v", repZero, repNone)
	}
	if repZero.Failed != 0 || repZero.Retried != 0 || repZero.Dropped != 0 ||
		repZero.Preemptions != 0 || repZero.VMCreateRetries != 0 || repZero.BreakerOpenRounds != 0 {
		t.Errorf("fault-free campaign reported resilience events: %+v", repZero)
	}
	// Every scheduled test completed: 6 servers x 2 directions x 24 hours.
	if want := 6 * 2 * 24; repZero.Tests != want {
		t.Errorf("Tests = %d, want %d", repZero.Tests, want)
	}
}

// TestFlakyVMCampaignDeterministic pins seed determinism under an active
// profile: two runs with the same seed fail in the same places and produce
// identical measurement streams and resilience accounting.
func TestFlakyVMCampaignDeterministic(t *testing.T) {
	a, repA := runFaultCampaign(t, "flaky-vm", 99, 2)
	b, repB := runFaultCampaign(t, "flaky-vm", 99, 2)

	if !bytes.Equal(a, b) {
		t.Error("same-seed flaky-vm runs produced different measurement streams")
	}
	if !reflect.DeepEqual(repA, repB) {
		t.Errorf("same-seed flaky-vm reports differ:\n%+v\n%+v", repA, repB)
	}
	if repA.Failed+repA.Dropped+repA.Preemptions+repA.VMCreateRetries == 0 {
		t.Errorf("flaky-vm injected nothing at seed 99: %+v", repA)
	}
	// A different seed must move the fault pattern somewhere.
	c, repC := runFaultCampaign(t, "flaky-vm", 100, 2)
	if bytes.Equal(a, c) && reflect.DeepEqual(repA, repC) {
		t.Error("different seeds produced identical faulted campaigns")
	}
}

// TestFaultedCampaignParallelismInvariant pins that the resilience machinery
// preserves the engine's parallelism invariance: retries, preemptions and
// drops land identically whether VM-hours run sequentially or concurrently.
// Under -race this doubles as the concurrent-retry race test.
func TestFaultedCampaignParallelismInvariant(t *testing.T) {
	seq, repSeq := runFaultCampaign(t, "flaky-vm", 41, 1)
	par, repPar := runFaultCampaign(t, "flaky-vm", 41, 4)

	if !bytes.Equal(seq, par) {
		t.Error("faulted measurement stream differs across parallelism")
	}
	if !reflect.DeepEqual(repSeq, repPar) {
		t.Errorf("faulted reports differ across parallelism:\n%+v\n%+v", repSeq, repPar)
	}
}

// TestCongestedServerPartialRounds pins graceful degradation: hour-long
// unavailability windows drop tests instead of aborting, the books balance
// (scheduled = completed + dropped), and the obs counters match the report.
func TestCongestedServerPartialRounds(t *testing.T) {
	f := setup(t)
	prof, err := faults.Named("congested-server")
	if err != nil {
		t.Fatal(err)
	}
	m := newCampaignMetrics("us-east1")
	before := map[string]uint64{
		"scheduled": m.scheduled.Value(),
		"completed": m.completed.Value(),
		"failed":    m.failed.Value(),
		"retried":   m.retried.Value(),
		"dropped":   m.dropped.Value(),
	}
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)

	servers := f.topo.USServers()[:6]
	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:  "us-east1",
		Servers: servers,
		Days:    1,
		Seed:    5,
		// Sparse, short captures on a campaign that actually drops tests: a
		// dropped test must never reach the capture path.
		TestDurationSec: 0.2,
		CaptureEvery:    48,
		Faults:          prof,
	}, log)
	if err != nil {
		t.Fatal(err)
	}

	scheduled := len(servers) * 2 * 24
	if rep.Dropped == 0 {
		t.Error("congested-server dropped nothing; unavailability windows not exercised")
	}
	if rep.Tests+rep.Dropped != scheduled {
		t.Errorf("books don't balance: %d completed + %d dropped != %d scheduled",
			rep.Tests, rep.Dropped, scheduled)
	}
	if log.Len() != rep.Tests {
		t.Errorf("log holds %d records, report says %d tests completed", log.Len(), rep.Tests)
	}
	if rep.Failed < rep.Dropped {
		t.Errorf("Failed (%d) < Dropped (%d); every drop implies at least one failure", rep.Failed, rep.Dropped)
	}

	if d := m.scheduled.Value() - before["scheduled"]; d != uint64(scheduled) {
		t.Errorf("scheduled counter delta = %d, want %d", d, scheduled)
	}
	if d := m.completed.Value() - before["completed"]; d != uint64(rep.Tests) {
		t.Errorf("completed counter delta = %d, want %d", d, rep.Tests)
	}
	if d := m.failed.Value() - before["failed"]; d != uint64(rep.Failed) {
		t.Errorf("failed counter delta = %d, want %d", d, rep.Failed)
	}
	if d := m.retried.Value() - before["retried"]; d != uint64(rep.Retried) {
		t.Errorf("retried counter delta = %d, want %d", d, rep.Retried)
	}
	if d := m.dropped.Value() - before["dropped"]; d != uint64(rep.Dropped) {
		t.Errorf("dropped counter delta = %d, want %d", d, rep.Dropped)
	}
}

// TestBreakerShedsRoundsUnderTotalOutage drives the breaker to Open with a
// profile whose servers are always unavailable, and checks whole rounds are
// shed with their tasks accounted as dropped.
func TestBreakerShedsRoundsUnderTotalOutage(t *testing.T) {
	f := setup(t)
	servers := f.topo.USServers()[:6]
	log := analysis.NewRecordLog()
	rep, err := f.orch.Run(Config{
		Region:  "us-east1",
		Servers: servers,
		Days:    1,
		Seed:    3,
		Faults: faults.Profile{
			ServerUnavailProb: 1, // every (server, hour) window is down
			TestTimeout:       5 * time.Millisecond,
			MaxRetries:        1,
			BreakerFailFrac:   0.5,
			BreakerMinSamples: 5,
			BreakerCooldown:   2,
		},
	}, log)
	if err != nil {
		t.Fatal(err)
	}
	scheduled := len(servers) * 2 * 24
	if rep.Tests != 0 {
		t.Errorf("%d tests completed during a total outage", rep.Tests)
	}
	if rep.Dropped != scheduled {
		t.Errorf("Dropped = %d, want all %d scheduled", rep.Dropped, scheduled)
	}
	if rep.BreakerOpenRounds == 0 {
		t.Error("breaker never opened during a total outage")
	}
	// Cooldown of 2 means at most one executed probe round per 3 hours
	// after the first trip; most of the day must be shed, not executed.
	if rep.BreakerOpenRounds < 12 {
		t.Errorf("only %d rounds shed; breaker not limiting the outage", rep.BreakerOpenRounds)
	}
	if log.Len() != 0 {
		t.Errorf("log holds %d records from dropped tests", log.Len())
	}
}
