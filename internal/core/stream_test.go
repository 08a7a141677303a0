package core

import (
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
)

// newStreamingCLASP builds an instance whose campaigns exceed the memory
// budget: no prepared views, and the finished record log spilled to disk.
func newStreamingCLASP(t *testing.T) *CLASP {
	t.Helper()
	c, err := New(Options{Seed: 3, Scale: 0.1, MaxMemoryMB: 1, SpillDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestStreamingCampaignIdentical pins the tentpole invariant: a campaign
// run over its memory budget — analyses reading a spilled log back through
// the cursor kernels — produces exactly the results of the unbudgeted one,
// whose analyses start from prepared views over a resident log.
func TestStreamingCampaignIdentical(t *testing.T) {
	mem := newCLASP(t)
	stream := newStreamingCLASP(t)

	resM, _, err := mem.RunTopologyCampaign("us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	resS, _, err := stream.RunTopologyCampaign("us-west1", 30)
	if err != nil {
		t.Fatal(err)
	}
	defer resS.Close()

	if resM.Log.Spilled() || resM.Prep == nil {
		t.Fatal("unbudgeted campaign spilled its log or built no prepared views")
	}
	if !resS.Log.Spilled() || resS.Prep != nil {
		t.Fatal("budgeted campaign kept its log resident or built prepared views (raise the campaign size or lower the budget)")
	}
	if got, want := resS.NumRecords(), resM.NumRecords(); got != want || got != resS.Report.Tests {
		t.Fatalf("budgeted campaign has %d records for %d tests, unbudgeted has %d", got, resS.Report.Tests, want)
	}
	// The budget is worth having only while the log it spills is small: at
	// least 4x under the in-memory struct.
	if perRecord := float64(resS.Log.CompressedBytes()) / float64(resS.Log.Len()); perRecord > analysis.MeasurementBytes/4 {
		t.Errorf("spilled record log takes %.1f bytes/record, want at most a quarter of the %d B struct", perRecord, analysis.MeasurementBytes)
	}
	if !reflect.DeepEqual(resS.FirstRecord(), resM.FirstRecord()) ||
		!reflect.DeepEqual(resS.LastRecord(), resM.LastRecord()) {
		t.Fatal("first/last record drifted across the budget")
	}

	// The full record sequence replays identically from the spilled and the
	// resident log.
	gotRecs, wantRecs := drainRecords(resS), drainRecords(resM)
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("spilled cursor yields %d records, resident %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if !reflect.DeepEqual(gotRecs[i], wantRecs[i]) {
			t.Fatalf("record %d drifted:\n resident: %+v\n spilled:  %+v", i, wantRecs[i], gotRecs[i])
		}
	}

	// Every figure derived from the campaign is deeply equal.
	fig4M, err := Fig4(resM, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	fig4S, err := Fig4(resS, bgp.Premium)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig4M, fig4S) {
		t.Error("Fig4 differs between unbudgeted and budgeted campaigns")
	}
	if got, want := stream.Fig8(resS, bgp.Premium), mem.Fig8(resM, bgp.Premium); !reflect.DeepEqual(got, want) {
		t.Error("Fig8 differs between unbudgeted and budgeted campaigns")
	}
	fig2M := Fig2(map[string]*CampaignResult{"us-west1": resM}, nil, 1)
	fig2S := Fig2(map[string]*CampaignResult{"us-west1": resS}, nil, 3)
	if !reflect.DeepEqual(fig2M, fig2S) {
		t.Error("Fig2 differs between unbudgeted and budgeted campaigns")
	}
	fig3M, err := mem.Fig3(resM)
	if err != nil {
		t.Fatal(err)
	}
	fig3S, err := stream.Fig3(resS)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig3M, fig3S) {
		t.Error("Fig3 differs between unbudgeted and budgeted campaigns")
	}
	hM := mem.ComputeHeadlines(map[string]*CampaignResult{"us-west1": resM}, nil)
	hS := stream.ComputeHeadlines(map[string]*CampaignResult{"us-west1": resS}, nil)
	if hM != hS {
		t.Errorf("headlines differ: mem %+v stream %+v", hM, hS)
	}

	// Close has nothing to release behind a resident log: it is a no-op and
	// cursors opened afterwards still replay every record.
	if err := resM.Close(); err != nil {
		t.Fatalf("Close on a resident result: %v", err)
	}
	if !reflect.DeepEqual(drainRecords(resM), wantRecs) {
		t.Error("resident result no longer replays its records after Close")
	}
}

// TestStreamingDifferentialIdentical covers the two-tier analysis path
// (tier deltas pair premium/standard records across the stream).
func TestStreamingDifferentialIdentical(t *testing.T) {
	mem := newCLASP(t)
	stream := newStreamingCLASP(t)

	resM, selM, err := mem.RunDifferentialCampaign("europe-west1", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	resS, _, err := stream.RunDifferentialCampaign("europe-west1", 14, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer resS.Close()
	if !resS.Log.Spilled() {
		t.Fatal("budgeted differential campaign did not spill its log")
	}

	for _, metric := range []analysis.Metric{analysis.MetricDownload, analysis.MetricUpload, analysis.MetricLatency} {
		got := analysis.TierDeltasCursor(resS.Cursor(), resS.Region, metric)
		want := analysis.TierDeltasCursor(resM.Cursor(), resM.Region, metric)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("TierDeltas(%v) differs across the budget", metric)
		}
	}
	fig5M, err := Fig5(resM, selM)
	if err != nil {
		t.Fatal(err)
	}
	fig5S, err := Fig5(resS, selM)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fig5M, fig5S) {
		t.Error("Fig5 differs between unbudgeted and budgeted campaigns")
	}
}
