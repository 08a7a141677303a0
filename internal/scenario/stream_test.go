package scenario

import (
	"bytes"
	"path/filepath"
	"testing"
)

// TestBudgetedScenarioByteIdentical pins the storage-determinism contract
// end to end: the same scenario run under a 1 MB record budget — every
// campaign's record log spilled to disk, every analysis on the cursor
// kernels — emits byte-for-byte the report of the unbounded run, whose
// analyses share views grouped once over resident logs.
func TestBudgetedScenarioByteIdentical(t *testing.T) {
	spec, err := LoadFile(filepath.Join(catalogDir, "small-smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	// Ten virtual days pushes both campaigns past the 1 MB budget while
	// staying cheap.
	spec.Days = 10

	var want bytes.Buffer
	if err := NewRunner().Run(&want, spec); err != nil {
		t.Fatal(err)
	}

	budgeted := *spec
	budgeted.MaxMemoryMB = 1
	budgeted.SpillDir = t.TempDir()
	var got bytes.Buffer
	if err := NewRunner().Run(&got, &budgeted); err != nil {
		t.Fatal(err)
	}
	if err := diffBytes(got.Bytes(), want.Bytes()); err != nil {
		t.Errorf("budgeted scenario drifted from the unbounded run: %v", err)
	}
}

// TestParseSpecBudgetFields pins the JSON spelling of the budget knobs.
func TestParseSpecBudgetFields(t *testing.T) {
	s, err := ParseSpec([]byte(`{
		"name": "budgeted",
		"maxMemoryMB": 64,
		"spillDir": "/tmp/clasp-spill",
		"campaigns": [{"kind": "topology", "regions": ["us-east1"]}]
	}`), "budgeted.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxMemoryMB != 64 || s.SpillDir != "/tmp/clasp-spill" {
		t.Fatalf("budget fields did not parse: %+v", s)
	}
	if _, err := ParseSpec([]byte(`{
		"name": "bad",
		"maxMemoryMB": -1,
		"campaigns": [{"kind": "topology", "regions": ["us-east1"]}]
	}`), "bad.json"); err == nil {
		t.Fatal("negative maxMemoryMB accepted")
	}
}
