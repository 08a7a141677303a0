package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// indexedByRecord is what the engine's index must hold after results ran,
// in order: every record of each, one at a time through StoreSink.Record,
// into a fresh store.
func indexedByRecord(results ...*CampaignResult) *tsdb.Store {
	store := tsdb.NewStore()
	sink := &orchestrator.StoreSink{Store: store}
	for _, res := range results {
		for _, m := range drainRecords(res) {
			sink.Record(m)
		}
	}
	return store
}

// checkIndex fails unless the engine's store holds what want does: the
// same series and points, sealed into the same blocks.
func checkIndex(t *testing.T, eng *CLASP, want *tsdb.Store) {
	t.Helper()
	all := func(s *tsdb.Store) []tsdb.Series { return s.Query("speedtest", nil, time.Time{}, time.Time{}) }
	if got, want := all(eng.Store), all(want); !reflect.DeepEqual(got, want) {
		t.Fatalf("index holds %d series, want %d, or their points differ", len(got), len(want))
	}
	gb, gp, gn := eng.Store.BlockStats()
	if wb, wp, wn := want.BlockStats(); gb != wb || gp != wp || gn != wn {
		t.Fatalf("index BlockStats = %d/%d/%d, want %d/%d/%d", gb, gp, gn, wb, wp, wn)
	}
}

// TestCampaignIndexMatchesRecords: what the engine indexes after a campaign
// is its log fed record by record through StoreSink.Record — for a fresh
// campaign, for two campaigns that share a region's series, and for a
// campaign killed at several hours and resumed on a fresh engine, whose
// killed run, a campaign that errored, leaves nothing in the index.
func TestCampaignIndexMatchesRecords(t *testing.T) {
	const region, days = "us-east1", 2
	t.Run("fresh", func(t *testing.T) {
		eng := newCLASP(t)
		topo, err := runTopology(eng, region, days)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Store.SeriesCount() == 0 {
			t.Fatal("a campaign under the index limit indexed nothing")
		}
		checkIndex(t, eng, indexedByRecord(topo))
		diff, _, err := runDifferential(eng, region, days, 6)
		if err != nil {
			t.Fatal(err)
		}
		checkIndex(t, eng, indexedByRecord(topo, diff))
	})
	for _, stopAfter := range []int{0, 13, 30, days*24 - 1} {
		t.Run(fmt.Sprintf("killed-after-hour-%d", stopAfter), func(t *testing.T) {
			ckDir := t.TempDir()
			killed, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir})
			if err != nil {
				t.Fatal(err)
			}
			killed.testCheckpointHook = func(p orchestrator.Progress) error {
				if p.NextHour > stopAfter {
					return errKilled
				}
				return nil
			}
			if _, err := runTopology(killed, region, days); !errors.Is(err, errKilled) {
				t.Fatalf("killed campaign returned %v, want the sentinel", err)
			}
			if n := killed.Store.SeriesCount(); n != 0 {
				t.Fatalf("the killed campaign left %d series in the index", n)
			}
			ck, err := checkpoint.Load(ckDir)
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := New(Options{Seed: 3, Scale: 0.1, Parallelism: 3, CheckpointDir: ckDir})
			if err != nil {
				t.Fatal(err)
			}
			res, err := resume(t, resumed, ck)
			if err != nil {
				t.Fatal(err)
			}
			checkIndex(t, resumed, indexedByRecord(res))
		})
	}
}
