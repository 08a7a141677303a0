package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"
)

// TestFreshManifestsLoad: what a fresh checkpointing command leaves under
// -checkpoint-dir once its manifest is written is either no manifest — a
// command that plans no campaign loses nothing to a kill — or one its
// resume loads. `report table1` used to write "campaigns": null, which the
// resume then refused.
func TestFreshManifestsLoad(t *testing.T) {
	eng, err := core.New(core.Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	wrote := 0
	for _, name := range append(scenario.Artifacts(), "costs", "campaign") {
		cmd, positional := "report", []string{name}
		switch name {
		case "costs":
			cmd, positional = name, nil
		case "campaign":
			cmd, positional = name, []string{"us-west1"}
		}
		c, err := newCommand(cmd, positional, 3, 6)
		if err != nil {
			t.Fatal(err)
		}
		// What command.run writes before its first campaign.
		dir := filepath.Join(t.TempDir(), "ck")
		eng.Opts.CheckpointDir = dir
		if err := eng.NewCommandScheduler(name).WriteManifest(c.name, c.artifact, c.refs, c.days, c.minSamples); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := os.Stat(filepath.Join(dir, checkpoint.ManifestFile)); os.IsNotExist(err) {
			if len(c.refs) > 0 {
				t.Errorf("%s plans %d campaigns and wrote no manifest", name, len(c.refs))
			}
			continue
		}
		wrote++
		if _, err := checkpoint.LoadManifest(dir); err != nil {
			t.Errorf("%s wrote a manifest its resume refuses: %v", name, err)
		}
	}
	if wrote == 0 {
		t.Fatal("no command wrote a manifest")
	}
}

// TestResumeNeedsManifest: a directory without command.json is no
// command's checkpoint set, and resume fails naming the file.
func TestResumeNeedsManifest(t *testing.T) {
	err := run([]string{"resume", t.TempDir()}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), checkpoint.ManifestFile) {
		t.Fatalf("resume of a directory without a manifest: %v, want an error naming %s", err, checkpoint.ManifestFile)
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
