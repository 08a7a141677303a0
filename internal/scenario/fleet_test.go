package scenario

import (
	"bytes"
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
// byte-identical to running them serially, one after another.
func TestFleetMatchesSerial(t *testing.T) {
	specs := cheapSpecs(t)

	// The serial reference: one runner, one scenario after another in name
	// order, each under its banner.
	var serial bytes.Buffer
	ordered := append([]*Spec(nil), specs...)
	sortSpecs(ordered)
	runner := NewRunner()
	for _, s := range ordered {
		core.Separator(&serial, "scenario "+s.Name)
		if err := runner.Run(&serial, s); err != nil {
			t.Fatalf("serial run of %s: %v", s.Name, err)
		}
	}

	fleet := NewRunner()
	var concurrent bytes.Buffer
	if err := fleet.Fleet(&concurrent, specs); err != nil {
		t.Fatalf("Fleet: %v", err)
	}

	if err := diffBytes(concurrent.Bytes(), serial.Bytes()); err != nil {
		t.Errorf("fleet output != serial output: %v", err)
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
