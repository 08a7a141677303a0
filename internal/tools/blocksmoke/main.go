// Command blocksmoke is the CI gate for the columnar storage layer. It
// pins the storage-determinism contract from three directions:
//
//  1. The catalog's small-smoke scenario run with the record-memory budget
//     and spill enabled must stay byte-identical to its committed golden —
//     the budget knob must never change results, only where they live.
//  2. A longer small-smoke variant (enough records to actually cross the
//     budget threshold) run budgeted and unbounded must produce
//     byte-identical reports, so the cursor kernels over a spilled record
//     log match the prepared views over a resident one exactly.
//  3. A direct campaign over the budget must really bound its footprint:
//     the record log is spilled and no prepared views are held, it decodes
//     to the same count the orchestration report claims, and compresses to
//     at least 4x fewer bytes than the in-memory Measurement.
package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "blocksmoke: FAIL:", err)
		os.Exit(1)
	}
}

func run() error {
	spillDir, err := os.MkdirTemp("", "blocksmoke-")
	if err != nil {
		return err
	}
	// Spill files are unlinked at creation; only the directory remains.
	defer os.RemoveAll(spillDir)

	const dir = "examples/scenarios"
	spec, err := scenario.LoadFile(filepath.Join(dir, "small-smoke.json"))
	if err != nil {
		return err
	}
	golden, err := os.ReadFile(filepath.Join(dir, "small-smoke.golden"))
	if err != nil {
		return fmt.Errorf("reading golden: %w", err)
	}

	// Gate 1: the budget knob must not move a byte of the golden.
	budgeted := *spec
	budgeted.MaxMemoryMB = 1
	budgeted.SpillDir = spillDir
	var got bytes.Buffer
	if err := scenario.NewRunner().Run(&got, &budgeted); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), golden) {
		return fmt.Errorf("small-smoke under a memory budget drifted from its golden (%d bytes, want %d)", got.Len(), len(golden))
	}

	// Gate 2: a ten-day variant crosses the 1 MB budget threshold in both
	// campaigns; budgeted and unbounded runs must be byte-identical.
	long := *spec
	long.Days = 10
	var unbounded bytes.Buffer
	if err := scenario.NewRunner().Run(&unbounded, &long); err != nil {
		return err
	}
	longBudgeted := long
	longBudgeted.MaxMemoryMB = 1
	longBudgeted.SpillDir = spillDir
	var streamed bytes.Buffer
	if err := scenario.NewRunner().Run(&streamed, &longBudgeted); err != nil {
		return err
	}
	if !bytes.Equal(streamed.Bytes(), unbounded.Bytes()) {
		return fmt.Errorf("budgeted 10-day small-smoke (%d bytes) differs from the unbounded run (%d bytes)", streamed.Len(), unbounded.Len())
	}

	// Gate 3: the budget must actually bound the campaign's footprint.
	eng, err := core.New(core.Options{Seed: 1, Scale: 0.1, MaxMemoryMB: 1, SpillDir: spillDir})
	if err != nil {
		return err
	}
	res, _, err := eng.RunTopologyCampaign("us-east1", 10)
	if err != nil {
		return err
	}
	defer res.Close()
	if !res.Log.Spilled() {
		return fmt.Errorf("over-budget campaign's record log was not spilled to disk")
	}
	if res.Prep != nil {
		return fmt.Errorf("over-budget campaign still holds prepared views")
	}
	if res.NumRecords() != res.Report.Tests {
		return fmt.Errorf("record log holds %d records, report says %d tests", res.NumRecords(), res.Report.Tests)
	}
	perRecord := float64(res.Log.CompressedBytes()) / float64(res.NumRecords())
	if ratio := analysis.MeasurementBytes / perRecord; ratio < 4 {
		return fmt.Errorf("record log compresses to %.1f bytes/record (%.1fx vs the %d B struct), want >= 4x",
			perRecord, ratio, analysis.MeasurementBytes)
	}

	fmt.Printf("blocksmoke: OK: budgeted small-smoke matches golden (%d bytes); streamed 10-day run byte-identical (%d bytes); %d records spilled at %.1f B/record (%.1fx)\n",
		len(golden), streamed.Len(), res.NumRecords(), perRecord, analysis.MeasurementBytes/perRecord)
	return nil
}
