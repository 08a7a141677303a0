package main

import (
	"bytes"
	"fmt"
	"path/filepath"
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
