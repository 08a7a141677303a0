package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/selection"
	"github.com/clasp-measurement/clasp/internal/speedchecker"
)

// reportAllSelections are the nine selections behind `report all`: six
// topology regions and three differential ones.
func reportAllSelections() []CampaignRef {
	var refs []CampaignRef
	for _, r := range TopologyRegions {
		refs = append(refs, CampaignRef{Kind: "topology", Region: r})
	}
	for _, r := range DifferentialRegions {
		refs = append(refs, CampaignRef{Kind: "differential", Region: r, MinSamples: 6})
	}
	return refs
}

// selectionOutcome is everything one selection returns.
type selectionOutcome struct {
	topo   *selection.TopoResult
	diff   []selection.DiffSelected
	deltas []speedchecker.TierDelta
}

func selectRef(t *testing.T, c *CLASP, ref CampaignRef) selectionOutcome {
	var out selectionOutcome
	var err error
	if ref.Kind == "topology" {
		out.topo, err = c.SelectTopologyServers(ref.Region)
	} else {
		out.diff, out.deltas, err = c.SelectDifferentialServers(ref.Region, ref.MinSamples)
	}
	if err != nil {
		t.Errorf("%+v: %v", ref, err)
	}
	return out
}

// TestConcurrentSelectionsMatchSequential pins what lets `report all`
// overlap its selections: the nine of them, resolved from nine goroutines on
// one engine (cold caches, so route trees and flow entries fill
// concurrently), equal field by field what a second engine computes one
// after the other; and the memo hands every later caller the same result.
// The concurrent engines run at Parallelism 1 and 4, so each selection's
// own fan-out (the preliminary scan's tuples, the topology method's
// traceroutes) runs inline and across workers. Run under -race it is the
// selection path's data-race test.
func TestConcurrentSelectionsMatchSequential(t *testing.T) {
	refs := reportAllSelections()
	sequential := newCLASP(t)
	want := make([]selectionOutcome, len(refs))
	for i, ref := range refs {
		want[i] = selectRef(t, sequential, ref)
	}

	for _, par := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			concurrent, err := New(Options{Seed: 3, Scale: 0.1, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			got := make([]selectionOutcome, len(refs))
			var wg sync.WaitGroup
			for i, ref := range refs {
				wg.Add(1)
				go func(i int, ref CampaignRef) {
					defer wg.Done()
					got[i] = selectRef(t, concurrent, ref)
				}(i, ref)
			}
			wg.Wait()
			for i, ref := range refs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%+v: concurrent selection differs from the sequential one", ref)
				}
			}

			// The memo hands every later caller the identical value.
			for i, ref := range refs {
				if again := selectRef(t, concurrent, ref); again.topo != got[i].topo {
					t.Errorf("%+v: the memo returned a second TopoResult", ref)
				}
			}
		})
	}
}
