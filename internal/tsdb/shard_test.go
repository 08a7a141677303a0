package tsdb

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestConcurrentInsertDistinctSeries inserts from many goroutines into
// distinct series (the common campaign shape: each worker owns its own
// server/tier/dir streams) and checks nothing is lost or misfiled.
func TestConcurrentInsertDistinctSeries(t *testing.T) {
	s := NewStore()
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	const goroutines = 8
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := Tags{"server": fmt.Sprintf("%d", g), "region": "us-east1"}
			for i := 0; i < perG; i++ {
				put(s, tags, base.Add(time.Duration(i)*time.Minute), map[string]float64{"mbps": float64(g*1000 + i)})
			}
		}(g)
	}
	wg.Wait()

	if got := s.SeriesCount(); got != goroutines {
		t.Fatalf("SeriesCount = %d, want %d", got, goroutines)
	}
	for g := 0; g < goroutines; g++ {
		res := s.query(Tags{"server": fmt.Sprintf("%d", g)}, time.Time{}, time.Time{})
		if len(res) != 1 {
			t.Fatalf("series %d: got %d series, want 1", g, len(res))
		}
		if len(res[0].Points) != perG {
			t.Fatalf("series %d: got %d points, want %d", g, len(res[0].Points), perG)
		}
		for i, p := range res[0].Points {
			if want := float64(g*1000 + i); p.Fields["mbps"] != want {
				t.Fatalf("series %d point %d: mbps = %v, want %v", g, i, p.Fields["mbps"], want)
			}
		}
	}
}

// TestConcurrentInsertSameSeries hammers one series (all writers collide on
// one shard lock) and checks every point lands, time-sorted.
func TestConcurrentInsertSameSeries(t *testing.T) {
	s := NewStore()
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	tags := Tags{"server": "1", "region": "us-east1"}
	const goroutines = 8
	const perG = 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Interleaved, partly out-of-order timestamps to exercise
				// both insert paths under contention.
				at := base.Add(time.Duration((i*goroutines+g)%(perG*goroutines)) * time.Second)
				put(s, tags, at, map[string]float64{"v": 1})
			}
		}(g)
	}
	wg.Wait()

	res := s.query(nil, time.Time{}, time.Time{})
	if len(res) != 1 {
		t.Fatalf("got %d series, want 1", len(res))
	}
	pts := res[0].Points
	if len(pts) != goroutines*perG {
		t.Fatalf("got %d points, want %d", len(pts), goroutines*perG)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time.Before(pts[i-1].Time) {
			t.Fatalf("points out of order at %d: %v < %v", i, pts[i].Time, pts[i-1].Time)
		}
	}
}

// TestHandleMatchesInsert asserts a handle held across inserts is
// observably identical to binding each point afresh (put): same series,
// same points, same block and tail bytes.
func TestHandleMatchesInsert(t *testing.T) {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	tagSets := campaignTagSets(4)

	plain := NewStore()
	handled := NewStore()
	for i, tags := range tagSets {
		h := handled.Bind(tags, "mbps", "loss")
		for j := 0; j < 5; j++ {
			at := base.Add(time.Duration(i*7+j) * time.Minute)
			put(plain, tags, at, map[string]float64{"mbps": float64(i*10 + j), "loss": 0.1})
			h.Insert(at, float64(i*10+j), 0.1)
		}
	}
	if !reflect.DeepEqual(plain.Dump(), handled.Dump()) {
		t.Fatal("handle inserts encode differently")
	}
}

// campaignTagSets mirrors a campaign's series population: one series per
// (server, tier, dir), inserted round-robin the way StoreSink sees records.
func campaignTagSets(n int) []Tags {
	out := make([]Tags, 0, n*4)
	for i := 0; i < n; i++ {
		for _, tier := range []string{"premium", "standard"} {
			for _, dir := range []string{"download", "upload"} {
				out = append(out, Tags{
					"server": fmt.Sprintf("%d", i),
					"region": "us-east1",
					"tier":   tier,
					"dir":    dir,
				})
			}
		}
	}
	return out
}
