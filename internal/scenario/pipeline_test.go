package scenario

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"github.com/clasp-measurement/clasp/internal/core"

	clasp "github.com/clasp-measurement/clasp"
)

// TestArtifactCacheSingleflight is the cache's concurrency contract (run
// under -race in CI): overlapping renderers requesting the same campaign
// coalesce onto one execution — every caller gets the same result, and the
// campaign is measured exactly once.
func TestArtifactCacheSingleflight(t *testing.T) {
	eng, err := core.New(core.Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache()
	cache.UseScheduler(eng.NewCommandScheduler("singleflight"))

	const callers = 8
	results := make([]*core.CampaignResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = cache.topology("us-west1", 1)
		}(i)
	}
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if results[i] == nil || results[i] != results[0] {
			t.Fatalf("caller %d got a different result object than caller 0", i)
		}
	}
	if got := cache.fills.Load(); got != 1 {
		t.Fatalf("cache executed the campaign %d times under %d concurrent callers, want exactly 1", got, callers)
	}
}

// TestArtifactCacheNeedsScheduler: campaigns are planned and run only
// through a command scheduler, so a cache without one refuses to measure.
func TestArtifactCacheNeedsScheduler(t *testing.T) {
	eng, err := core.New(core.Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	err = RenderArtifact(io.Discard, clasp.NewFromCore(eng), NewArtifactCache(), "fig3", 1, 6)
	if err == nil || !strings.Contains(err.Error(), "no command scheduler") {
		t.Fatalf("fig3 from a cache with no scheduler: %v, want a refusal", err)
	}
}

// renderAllWith runs `report all` end to end on a fresh engine at the
// given parallelism, with a command scheduler attached exactly like the
// CLI's report path, and returns the rendered bytes.
func renderAllWith(t *testing.T, parallelism int) []byte {
	t.Helper()
	eng, err := core.New(core.Options{Seed: 3, Scale: 0.1, Parallelism: parallelism})
	if err != nil {
		t.Fatal(err)
	}
	p := clasp.NewFromCore(eng)
	sched := eng.NewCommandScheduler("report-all")
	cache := NewArtifactCache()
	cache.UseScheduler(sched)
	var buf bytes.Buffer
	if err := RenderArtifact(&buf, p, cache, "all", 1, 6); err != nil {
		t.Fatalf("report all at parallelism %d: %v", parallelism, err)
	}
	return buf.Bytes()
}

// TestReportAllByteIdenticalAcrossParallelism pins the pipelined
// scheduler's determinism invariant: `report all` — campaigns running
// concurrently, artifacts rendering as their inputs complete — emits the
// same bytes at parallelism 1 and 4, and those bytes equal the plain
// sequential per-artifact loop.
func TestReportAllByteIdenticalAcrossParallelism(t *testing.T) {
	// Sequential reference: one artifact at a time, campaigns on demand,
	// no prelaunch — the pre-pipeline rendering order.
	eng, err := core.New(core.Options{Seed: 3, Scale: 0.1, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := clasp.NewFromCore(eng)
	cache := NewArtifactCache()
	cache.UseScheduler(eng.NewCommandScheduler("report-sequential"))
	var want bytes.Buffer
	for _, a := range artifactOrder {
		core.Separator(&want, a)
		if err := RenderArtifact(&want, p, cache, a, 1, 6); err != nil {
			t.Fatalf("sequential %s: %v", a, err)
		}
	}

	for _, par := range []int{1, 4} {
		got := renderAllWith(t, par)
		if err := diffBytes(got, want.Bytes()); err != nil {
			t.Errorf("pipelined report all at parallelism %d drifted from the sequential loop: %v", par, err)
		}
	}
}

// TestCampaignRefsDeduplicated: the campaign plan for "all" must name each
// campaign exactly once, in first-request order — it is what the command
// manifest records and what Prelaunch executes.
func TestCampaignRefsDeduplicated(t *testing.T) {
	refs := CampaignRefs([]string{"all"}, 2, 6)
	seen := make(map[core.CampaignRef]bool)
	topo, diff := 0, 0
	for _, r := range refs {
		if seen[r] {
			t.Fatalf("campaign %+v planned twice", r)
		}
		seen[r] = true
		switch r.Kind {
		case "topology":
			topo++
			if r.MinSamples != 0 {
				t.Errorf("topology campaign %+v carries minSamples", r)
			}
		case "differential":
			diff++
			if r.MinSamples != 6 {
				t.Errorf("differential campaign %+v lost its minSamples", r)
			}
		default:
			t.Fatalf("campaign %+v has unknown kind", r)
		}
	}
	// The full artifact set spans the topology regions plus every
	// differential region (DifferentialRegions ∪ {europe-west1}).
	if topo < len(core.TopologyRegions) || diff < len(core.DifferentialRegions) {
		t.Fatalf("plan has %d topology and %d differential campaigns, want at least %d and %d",
			topo, diff, len(core.TopologyRegions), len(core.DifferentialRegions))
	}
	if refs[0].Kind != "topology" {
		t.Fatalf("first planned campaign %+v, want the first topology dependency", refs[0])
	}
}
