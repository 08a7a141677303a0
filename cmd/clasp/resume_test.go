package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"
)

// TestResumeDifferentialRendersLikeScenario pins that a resumed differential
// campaign is rendered by the same code as every other path: `clasp resume`
// on the checkpoint a scenario's differential campaign left behind (at its
// final watermark, so the resume is a replay-only pass) must print exactly
// the summary, Resilience and tier-comparison lines the scenario printed.
func TestResumeDifferentialRendersLikeScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	ckRoot := t.TempDir()
	spec, err := scenario.ParseSpec([]byte(fmt.Sprintf(`{
		"name": "drill", "topology": {"scale": 0.1}, "seed": 3, "days": 2, "minSamples": 6,
		"faultProfile": "flaky-vm", "checkpointDir": %q,
		"campaigns": [{"kind": "differential", "regions": ["europe-west1"]}]
	}`, ckRoot)), "drill")
	if err != nil {
		t.Fatal(err)
	}
	var ran bytes.Buffer
	if err := scenario.NewRunner().Run(&ran, spec); err != nil {
		t.Fatal(err)
	}
	var sep bytes.Buffer
	core.Separator(&sep, "differential europe-west1")
	want, ok := strings.CutPrefix(ran.String(), sep.String())
	if !ok {
		t.Fatalf("scenario output does not start with the campaign separator:\n%s", ran.String())
	}
	for _, line := range []string{"Campaign: ", "Resilience: ", "Tier comparison for europe-west1", "downloads within 50%"} {
		if !strings.Contains(want, line) {
			t.Fatalf("scenario output has no %q line:\n%s", line, want)
		}
	}

	var got bytes.Buffer
	ckDir := filepath.Join(ckRoot, "drill", "europe-west1-differential")
	if err := resumeCmd([]string{ckDir}, &got, core.Options{Parallelism: 1}); err != nil {
		t.Fatal(err)
	}
	if got.String() != want {
		t.Fatalf("resumed differential campaign renders differently:\n--- resume ---\n%s--- scenario ---\n%s", got.String(), want)
	}
}

// TestResumeReportFig7 kills `clasp report fig7` as its first campaign
// completes and resumes it. Fig. 7 selects differential servers at the
// command's -samples threshold but runs only topology campaigns, so no
// campaign ref carries the threshold: the resume must take it from the
// manifest, or it re-selects at the default of 100 and prints a different
// europe-west1 selection.
func TestResumeReportFig7(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	row := contractRow{name: "report-fig7", command: func(_ *testing.T, k knobs) []string {
		return slices.Concat([]string{"report", "fig7"}, contractShape, k.flags())
	}}
	k := knobs{parallelism: 4}
	var want bytes.Buffer
	if err := run(row.command(t, k), &want); err != nil {
		t.Fatal(err)
	}
	killAndResume(t, row, k, "campaign-done:1", want.Bytes())
}
