package orchestrator

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/cloud"
)

// newTestCampaign builds a campaign on a platform of its own, as a restarted
// process would; the simulator is pure and shared.
func newTestCampaign(t testing.TB, f *fixture, cfg Config) *campaign {
	t.Helper()
	c, err := New(f.sim, cloud.New(f.topo, cloud.Pricing{}), nil).newCampaign(cfg, analysis.NewRecordLog())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.close)
	return c
}

// TestPlanRefillMatchesFresh: plan refills one round and one permutation
// buffer hour after hour, so whatever an earlier hour left in them must not
// show. For seeds × server counts, every hour's refilled round equals the one
// a campaign built for that hour alone plans — which is also a campaign
// resumed at that watermark, mid-day included — and the order equals the
// fresh generator's rand.Perm.
func TestPlanRefillMatchesFresh(t *testing.T) {
	f := setup(t)
	for _, seed := range []int64{0, 1, 23} {
		for _, n := range []int{1, 9, 20} {
			cfg := Config{
				Region: "us-east1", Servers: f.topo.Servers()[:n], Days: 3, Seed: seed,
				Tiers: []bgp.Tier{bgp.Premium, bgp.Standard}, CaptureEvery: 7,
			}
			reused := newTestCampaign(t, f, cfg)
			for reused.NextHour < reused.total {
				reused.plan()
				h, got := reused.NextHour, &reused.round

				want := rand.New(rand.NewSource(hourSeed(seed, h))).Perm(n)
				if !slices.Equal(reused.order, want) {
					t.Fatalf("seed %d, n %d, hour %d: order %v, want %v", seed, n, h, reused.order, want)
				}
				resumed := cfg
				resumed.Resume = &Progress{NextHour: h, Downloads: reused.Downloads}
				fresh := newTestCampaign(t, f, resumed)
				fresh.plan()
				if fr := &fresh.round; got.hour != fr.hour || !got.start.Equal(fr.start) || got.downloads != fr.downloads ||
					!reflect.DeepEqual(got.tasks, fr.tasks) {
					t.Fatalf("seed %d, n %d, hour %d: refilled round differs from a fresh campaign's", seed, n, h)
				}
				if got.executed != 0 || got.tally != (Resilience{}) || got.traces != nil ||
					slices.Contains(got.completed, true) || slices.ContainsFunc(got.perVM, func(r Resilience) bool { return r != Resilience{} }) {
					t.Fatalf("seed %d, n %d, hour %d: plan left the last round's outcome in place: %+v", seed, n, h, got)
				}
				if err := reused.execute(); err != nil {
					t.Fatal(err)
				}
				if err := reused.commit(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestSteadyRoundAllocs: on the simulated path a round's plan and execute
// allocate nothing once every flow is resolved and its day record built —
// the round, the permutation and the flow handles are the campaign's — and
// the first round of a new day allocates one day record per flow.
func TestSteadyRoundAllocs(t *testing.T) {
	f := setup(t)
	c := newTestCampaign(t, f, Config{
		Region: "us-east1", Servers: f.topo.Servers()[:9], Days: 3, Seed: 5,
		Tiers: []bgp.Tier{bgp.Premium, bgp.Standard},
	})
	round := func() {
		c.plan()
		if err := c.execute(); err != nil {
			t.Fatal(err)
		}
		c.NextHour++
	}
	round() // hour 0 resolves the flows
	// AllocsPerRun's warm-up call is hour 1; the 21 it counts end at hour 22.
	if allocs := testing.AllocsPerRun(21, round); allocs != 0 {
		t.Errorf("a round within a day allocates %.1f objects, want 0", allocs)
	}
	round() // hour 23
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	round() // hour 24: every flow's first test of day 1
	runtime.ReadMemStats(&after)
	if got, flows := after.Mallocs-before.Mallocs, uint64(len(c.flows)); got < flows || got > flows+8 {
		t.Errorf("the first round of a day allocates %d objects for %d flows, want one day record each", got, flows)
	}
}
