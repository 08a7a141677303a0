package tsdb

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

func TestInsertAndQuery(t *testing.T) {
	s := NewStore()
	tags := Tags{"server": "42", "region": "us-west1", "dir": "down"}
	for h := 0; h < 24; h++ {
		put(s, tags, t0.Add(time.Duration(h)*time.Hour), map[string]float64{"mbps": float64(100 + h), "rtt_ms": 20})
	}
	if s.SeriesCount() != 1 {
		t.Errorf("series = %d", s.SeriesCount())
	}
	got := s.query(Tags{"server": "42"}, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 24 {
		t.Fatalf("query returned %d series", len(got))
	}
	// Time-range restriction.
	got = s.query(nil, t0.Add(6*time.Hour), t0.Add(12*time.Hour))
	if len(got) != 1 || len(got[0].Points) != 6 {
		t.Fatalf("range query points = %v", got)
	}
	if got[0].Points[0].Fields["mbps"] != 106 {
		t.Errorf("first point = %v", got[0].Points[0])
	}
	// Mismatch returns nothing.
	if r := s.query(Tags{"server": "43"}, time.Time{}, time.Time{}); len(r) != 0 {
		t.Error("tag mismatch returned series")
	}
}

func TestOutOfOrderInsertKeptSorted(t *testing.T) {
	s := NewStore()
	times := []int{5, 1, 3, 2, 4, 0}
	for _, h := range times {
		put(s, nil, t0.Add(time.Duration(h)*time.Hour), map[string]float64{"v": float64(h)})
	}
	got := s.query(nil, time.Time{}, time.Time{})[0]
	for i := 1; i < len(got.Points); i++ {
		if got.Points[i].Time.Before(got.Points[i-1].Time) {
			t.Fatalf("points not sorted: %v", got.Points)
		}
	}
	if got.Points[0].Fields["v"] != 0 || got.Points[5].Fields["v"] != 5 {
		t.Error("sorted values wrong")
	}
}

func TestSeparateSeriesPerTagSet(t *testing.T) {
	s := NewStore()
	put(s, Tags{"a": "1"}, t0, map[string]float64{"v": 1})
	put(s, Tags{"a": "2"}, t0, map[string]float64{"v": 2})
	put(s, Tags{"a": "1", "b": "x"}, t0, map[string]float64{"v": 3})
	if s.SeriesCount() != 3 {
		t.Errorf("series = %d, want 3", s.SeriesCount())
	}
	if got := s.query(Tags{"a": "1"}, time.Time{}, time.Time{}); len(got) != 2 {
		t.Errorf("partial tag match returned %d series", len(got))
	}
}

// Property: random stores round-trip through sealed blocks.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		return sealedMatchesUnsealed(t, seed, func(s *Store) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				tags := Tags{"s": string(rune('a' + rng.Intn(5)))}
				at := t0.Add(time.Duration(rng.Intn(1000)) * time.Minute)
				put(s, tags, at, map[string]float64{"v": rng.Float64() * 1000})
			}
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: sealed blocks round-trip the edge cases scenario fixtures lean
// on — negative and zero (epoch) timestamps, float fields down to tiny
// exponents (1e-07 and friends), multi-field points, and tag-less series.
// Sealing must preserve every value exactly.
func TestRoundTripEdgeCasesProperty(t *testing.T) {
	fieldNames := []string{"v", "mbps", "rtt_ms", "loss"}
	f := func(seed int64) bool {
		return sealedMatchesUnsealed(t, seed, func(s *Store) {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 40; i++ {
				var tags Tags
				if rng.Intn(3) > 0 { // one third of points land in tag-less series
					tags = Tags{"s": string(rune('a' + rng.Intn(3)))}
				}
				// Timestamps straddle the epoch: negative, zero and positive
				// nanosecond counts all occur.
				at := time.Unix(0, rng.Int63n(2_000_000)-1_000_000).UTC()
				if i == 0 {
					at = time.Unix(0, 0).UTC()
				}
				fields := make(map[string]float64)
				for _, fn := range fieldNames[:1+rng.Intn(len(fieldNames))] {
					v := rng.NormFloat64() * 1e3
					switch rng.Intn(4) {
					case 0:
						v = rng.Float64() * 1e-7
					case 1:
						v = 1e-07
					case 2:
						v = -v
					}
					fields[fn] = v
				}
				put(s, tags, at, fields)
			}
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sealedMatchesUnsealed runs the same inserts against a store that seals
// every four points and one that never seals, seals what the first still
// holds in its tails, and reports whether both read back the same series
// with bit-exact fields and timestamps.
func sealedMatchesUnsealed(t *testing.T, seed int64, insert func(*Store)) bool {
	sealed, plain := NewStore(), NewStore()
	sealed.sealThreshold, plain.sealThreshold = 4, 0
	insert(sealed)
	insert(plain)
	for i := range sealed.shards {
		for _, sr := range sealed.shards[i].series {
			if sr.tail.len() > 0 {
				sr.seal()
			}
		}
	}
	if !reflect.DeepEqual(plain.query(nil, time.Time{}, time.Time{}), sealed.query(nil, time.Time{}, time.Time{})) {
		t.Logf("seed %d: queried series diverged after sealing", seed)
		return false
	}
	return true
}

// TestConcurrentInsert hammers one store from many goroutines; under -race
// it verifies the locking, and the final counts verify no point was lost.
func TestConcurrentInsert(t *testing.T) {
	s := NewStore()
	const goroutines, points = 8, 100
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := Tags{"worker": string(rune('a' + g))}
			for i := 0; i < points; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				put(s, tags, at, map[string]float64{"v": float64(i)})
				// Interleave reads with writes.
				if i%10 == 0 {
					s.query(tags, time.Time{}, time.Time{})
					s.SeriesCount()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.SeriesCount() != goroutines {
		t.Errorf("series = %d, want %d", s.SeriesCount(), goroutines)
	}
	for g := 0; g < goroutines; g++ {
		got := s.query(Tags{"worker": string(rune('a' + g))}, time.Time{}, time.Time{})
		if len(got) != 1 || len(got[0].Points) != points {
			t.Errorf("worker %d: lost points: %d series", g, len(got))
		}
	}
}
