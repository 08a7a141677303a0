package core

import (
	"fmt"
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
)

// TestSchedulerResumeSkipsFinished is the command-resume invariant at the
// core layer: a campaign run to completion under a command scheduler with
// checkpointing on is, on resume, recognized as finished at Plan time
// (OnSkip fires), and Run rebuilds its result from the recorded stream —
// records bit-identical to the original run, no re-measurement. It holds at
// a checkpoint cadence that does not divide the campaign's 24 hours too: the
// last hour commits regardless, so the final watermark is on disk.
func TestSchedulerResumeSkipsFinished(t *testing.T) {
	for _, every := range []int{0, 7} {
		t.Run(fmt.Sprintf("every-%d", every), func(t *testing.T) { testSchedulerResumeSkipsFinished(t, every) })
	}
}

func testSchedulerResumeSkipsFinished(t *testing.T, every int) {
	const region, days = "us-west1", 1
	ckDir := t.TempDir()
	ref := CampaignRef{Kind: "topology", Region: region, Days: days}

	first, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	s1 := first.NewCommandScheduler("costs")
	if err := s1.WriteManifest("costs", "", []CampaignRef{ref}, days, 0); err != nil {
		t.Fatal(err)
	}
	p1, err := s1.Plan(ref)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s1.Run(p1)
	if err != nil {
		t.Fatal(err)
	}

	man, err := checkpoint.LoadManifest(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if man == nil || man.Command != "costs" || len(man.Campaigns) != 1 {
		t.Fatalf("manifest after run = %+v, want a costs manifest with one campaign", man)
	}

	second, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir, CheckpointEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	second.testCheckpointHook = func(p orchestrator.Progress) error {
		t.Errorf("resume re-executed a round of the finished campaign (watermark %d)", p.NextHour)
		return nil
	}
	s2 := second.NewResumeScheduler("costs")
	var skipped []string
	s2.OnSkip = func(camp checkpoint.Campaign) {
		skipped = append(skipped, checkpoint.CampaignDir(camp))
	}
	p2, err := s2.Plan(ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(skipped) != 1 || skipped[0] != region+"-topology" {
		t.Fatalf("OnSkip fired for %v, want exactly [%s-topology]", skipped, region)
	}
	got, err := s2.Run(p2)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(drainRecords(got), drainRecords(want)) {
		t.Errorf("loaded campaign records differ from the original run (%d vs %d records)",
			got.NumRecords(), want.NumRecords())
	}
	if got.Report.Tests != want.Report.Tests || got.Report.Hours != want.Report.Hours || got.Report.VMs != want.Report.VMs {
		t.Errorf("loaded report %+v differs from original %+v", got.Report, want.Report)
	}
	// The resumed engine must re-accrue every cost component — egress per
	// replayed record plus both compute accruals (per-hour and VM
	// teardown) — or a resumed `costs` under-reports the bill.
	if gc, wc := second.Cloud.Costs(), first.Cloud.Costs(); gc != wc {
		t.Errorf("loaded campaign costs %+v differ from original %+v", gc, wc)
	}
}

// TestSchedulerResumeIdentityMismatch: a resume scheduler must refuse a
// checkpoint written under a different engine seed rather than splice
// foreign records into the command.
func TestSchedulerResumeIdentityMismatch(t *testing.T) {
	const region, days = "us-west1", 1
	ckDir := t.TempDir()
	ref := CampaignRef{Kind: "topology", Region: region, Days: days}

	first, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir})
	if err != nil {
		t.Fatal(err)
	}
	s1 := first.NewCommandScheduler("costs")
	if p, err := s1.Plan(ref); err != nil {
		t.Fatal(err)
	} else if _, err := s1.Run(p); err != nil {
		t.Fatal(err)
	}

	other, err := New(Options{Seed: 4, Scale: 0.1, CheckpointDir: ckDir})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := other.NewResumeScheduler("costs").Plan(ref); err == nil {
		t.Fatal("resume Plan accepted a checkpoint from a different seed")
	}
}

// TestPlanRefUnknownKind pins the error for a malformed manifest entry.
func TestPlanRefUnknownKind(t *testing.T) {
	c, err := New(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.PlanRef(CampaignRef{Kind: "bogus", Region: "us-west1", Days: 1}); err == nil {
		t.Fatal("PlanRef accepted an unknown campaign kind")
	}
}
