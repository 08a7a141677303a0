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
				err := s.Insert("speedtest", tags, base.Add(time.Duration(i)*time.Minute),
					map[string]float64{"mbps": float64(g*1000 + i)})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if got := s.SeriesCount(); got != goroutines {
		t.Fatalf("SeriesCount = %d, want %d", got, goroutines)
	}
	for g := 0; g < goroutines; g++ {
		res := s.Query("speedtest", Tags{"server": fmt.Sprintf("%d", g)}, time.Time{}, time.Time{})
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
				if err := s.Insert("speedtest", tags, at, map[string]float64{"v": 1}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	res := s.Query("speedtest", nil, time.Time{}, time.Time{})
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

// TestHandleMatchesInsert asserts the bound-handle path is observably
// identical to Store.Insert: same series, same points, same block and tail
// bytes.
func TestHandleMatchesInsert(t *testing.T) {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	tagSets := benchTagSets(4)

	plain := NewStore()
	handled := NewStore()
	for i, tags := range tagSets {
		h, err := handled.Bind("speedtest", tags, "mbps", "loss")
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 5; j++ {
			at := base.Add(time.Duration(i*7+j) * time.Minute)
			if err := plain.Insert("speedtest", tags, at, map[string]float64{"mbps": float64(i*10 + j), "loss": 0.1}); err != nil {
				t.Fatal(err)
			}
			if err := h.Insert(at, float64(i*10+j), 0.1); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !reflect.DeepEqual(storeBytes(plain), storeBytes(handled)) {
		t.Fatal("handle inserts encode differently")
	}
}

// TestHandleValidation pins Bind's checking of the series it interns.
func TestHandleValidation(t *testing.T) {
	s := NewStore()
	if _, err := s.Bind("bad measurement", nil, "v"); err == nil {
		t.Fatal("expected error for measurement with space")
	}
	if _, err := s.Bind("m", Tags{"k": "a,b"}, "v"); err == nil {
		t.Fatal("expected error for tag value with comma")
	}
	if _, err := s.Bind("m", Tags{"k": "v"}, "v"); err != nil {
		t.Fatal(err)
	}
}
