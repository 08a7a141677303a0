package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"github.com/clasp-measurement/clasp/internal/core"
)

// cheapSpecs loads the catalog minus the paper-scale scenario: four
// 10%-scale scenarios that all share one (seed, scale) substrate.
func cheapSpecs(t *testing.T) []*Spec {
	t.Helper()
	all, err := LoadDir(catalogDir)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", catalogDir, err)
	}
	specs := make([]*Spec, 0, len(all))
	for _, s := range all {
		if !s.Topology.PaperScale {
			specs = append(specs, s)
		}
	}
	if len(specs) < 2 {
		t.Fatalf("only %d cheap scenarios in the catalog; fleet test needs >= 2", len(specs))
	}
	return specs
}

// TestFleetMatchesSerial pins the fleet contract: running the catalog's
// cheap scenarios concurrently over one shared substrate produces output
// byte-identical to running them serially, one after another. The serial
// side is committed — TestCatalogGoldens holds each scenario run alone to its
// golden — so the fleet is held to the goldens, each under its banner, in
// name order, and no scenario is run a second time to say so.
func TestFleetMatchesSerial(t *testing.T) {
	specs := cheapSpecs(t)

	var serial bytes.Buffer
	ordered := append([]*Spec(nil), specs...)
	sortSpecs(ordered)
	for _, s := range ordered {
		core.Separator(&serial, "scenario "+s.Name)
		golden, err := os.ReadFile(filepath.Join(catalogDir, s.Name+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		serial.Write(golden)
	}

	fleet := NewRunner()
	var concurrent bytes.Buffer
	if err := fleet.Fleet(&concurrent, specs); err != nil {
		t.Fatalf("Fleet: %v", err)
	}

	if err := diffBytes(concurrent.Bytes(), serial.Bytes()); err != nil {
		t.Errorf("fleet output != the serial goldens: %v", err)
	}

	// All cheap scenarios share (seed 1, scale 0.1), so the fleet must have
	// built exactly one substrate — the sharing the mode exists for.
	fleet.mu.Lock()
	subs := len(fleet.subs)
	fleet.mu.Unlock()
	if subs != 1 {
		t.Errorf("fleet built %d substrates for %d same-shape scenarios, want 1", subs, len(specs))
	}
}
