package core

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bdrmap"
	"github.com/clasp-measurement/clasp/internal/obs"
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

// sameOutcome reports whether two selections are equal field by field, a
// topology selection's pilot links by their links and router IDs: a
// bdrmap.Result also holds its mapper and resolves routers on first read.
func sameOutcome(a, b selectionOutcome) bool {
	if a.topo == nil || b.topo == nil {
		return reflect.DeepEqual(a, b)
	}
	pa, pb := a.topo.PilotLinks, b.topo.PilotLinks
	ta, tb := *a.topo, *b.topo
	ta.PilotLinks, tb.PilotLinks = nil, nil
	a.topo, b.topo = &ta, &tb
	return reflect.DeepEqual(a, b) && reflect.DeepEqual(pa.Links, pb.Links) && slices.Equal(pa.Routers(), pb.Routers())
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
				if !sameOutcome(got[i], want[i]) {
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

// TestDifferentialSelectionMatchesOneRegionScan pins the shared preliminary
// scan: the first differential selection scans every DifferentialRegions
// region at once and each region takes its aggregates from that one scan,
// so every region's selection and deltas must equal what a scan of the
// region alone gives — at two MinSamples values, each with a scan of its
// own, on engines at parallelism 1, 2 and 4. A region outside the list
// scans alone and must leave the shared scans as they were.
func TestDifferentialSelectionMatchesOneRegionScan(t *testing.T) {
	regions := append(slices.Clone(DifferentialRegions), "us-west1")
	minSamples := []int{6, 30}
	ref := newCLASP(t)
	want := map[diffSelKey]selectionOutcome{}
	for _, ms := range minSamples {
		for _, region := range regions {
			aggs := ref.Checker.RunPreliminary(ref.scanParams([]string{region}, ms))
			var out selectionOutcome
			var err error
			if out.diff, out.deltas, err = selectFromScan(ref.Topo, region, ms, aggs); err != nil {
				t.Fatalf("%s min %d: %v", region, ms, err)
			}
			if len(out.diff) == 0 {
				t.Fatalf("%s min %d: the one-region scan selects nothing", region, ms)
			}
			want[diffSelKey{region, ms}] = out
		}
	}
	if reflect.DeepEqual(want[diffSelKey{"europe-west1", 6}].deltas, want[diffSelKey{"europe-west1", 30}].deltas) {
		t.Fatal("both MinSamples values give the same deltas: the second value is not exercised")
	}

	for _, par := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("parallelism%d", par), func(t *testing.T) {
			c, err := New(Options{Seed: 3, Scale: 0.1, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			for _, ms := range minSamples {
				for _, region := range regions {
					got := selectRef(t, c, CampaignRef{Kind: "differential", Region: region, MinSamples: ms})
					if !reflect.DeepEqual(got, want[diffSelKey{region, ms}]) {
						t.Errorf("%s min %d: the selection differs from a one-region scan's", region, ms)
					}
				}
			}
			if len(c.diffScans) != len(minSamples) {
				t.Errorf("%d shared scans, want one per MinSamples value (%d)", len(c.diffScans), len(minSamples))
			}
			for ms, m := range c.diffScans {
				for _, a := range m.aggs {
					if !slices.Contains(DifferentialRegions, a.Key.Region) {
						t.Fatalf("the shared scan for min %d holds %s", ms, a.Key.Region)
					}
				}
			}
		})
	}
}

// TestRoutersOnFirstRead: topology selections in every region, Table 1, a
// differential selection and a campaign resolve no alias set —
// alias_resolve_calls_total stays put — until a selection's pilot links are
// asked for their Routers. Eight racing readers then resolve that region
// once, one Resolve per neighbor, and share one slice, index-aligned with
// the links; later reads resolve nothing.
func TestRoutersOnFirstRead(t *testing.T) {
	c := newCLASP(t)
	resolves := obs.Default().Counter("alias_resolve_calls_total")
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := resolves.Value()
	for _, region := range TopologyRegions {
		if _, err := c.SelectTopologyServers(region); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Table1(TopologyRegions); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SelectDifferentialServers(DifferentialRegions[0], 6); err != nil {
		t.Fatal(err)
	}
	if _, err := runTopology(c, "us-west1", 2); err != nil {
		t.Fatal(err)
	}
	if n := resolves.Value() - before; n != 0 {
		t.Fatalf("selections, Table 1 and a campaign ran %d alias resolutions, want 0", n)
	}

	sel, err := c.SelectTopologyServers("us-west1")
	if err != nil {
		t.Fatal(err)
	}
	links := sel.PilotLinks.Links
	neighbors := map[bdrmap.ASN]bool{}
	for _, l := range links {
		neighbors[l.Neighbor] = true
	}
	var racing [8][]int
	var wg sync.WaitGroup
	for g := range racing {
		wg.Add(1)
		go func() { defer wg.Done(); racing[g] = sel.PilotLinks.Routers() }()
	}
	wg.Wait()
	if n := resolves.Value() - before; n != uint64(len(neighbors)) {
		t.Errorf("eight racing readers ran %d alias resolutions, want one per neighbor (%d)", n, len(neighbors))
	}
	routers := racing[0]
	if len(routers) != len(links) || slices.Max(routers) < 0 {
		t.Fatalf("%d router IDs for %d links, the largest %d", len(routers), len(links), slices.Max(routers))
	}
	for g, r := range racing {
		if &r[0] != &routers[0] {
			t.Fatalf("racing reader %d got router IDs of its own", g)
		}
	}
	before = resolves.Value()
	sel.PilotLinks.Routers()
	if n := resolves.Value() - before; n != 0 {
		t.Errorf("a later read ran %d alias resolutions", n)
	}
}
