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
		err := s.Insert("throughput", tags, t0.Add(time.Duration(h)*time.Hour),
			map[string]float64{"mbps": float64(100 + h), "rtt_ms": 20})
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.SeriesCount() != 1 {
		t.Errorf("series = %d", s.SeriesCount())
	}
	got := s.Query("throughput", Tags{"server": "42"}, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 24 {
		t.Fatalf("query returned %d series", len(got))
	}
	// Time-range restriction.
	got = s.Query("throughput", nil, t0.Add(6*time.Hour), t0.Add(12*time.Hour))
	if len(got) != 1 || len(got[0].Points) != 6 {
		t.Fatalf("range query points = %v", got)
	}
	if got[0].Points[0].Fields["mbps"] != 106 {
		t.Errorf("first point = %v", got[0].Points[0])
	}
	// Mismatch returns nothing.
	if r := s.Query("throughput", Tags{"server": "43"}, time.Time{}, time.Time{}); len(r) != 0 {
		t.Error("tag mismatch returned series")
	}
	if r := s.Query("latency", nil, time.Time{}, time.Time{}); len(r) != 0 {
		t.Error("wrong measurement returned series")
	}
}

func TestInsertValidation(t *testing.T) {
	s := NewStore()
	if err := s.Insert("", nil, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("empty measurement accepted")
	}
	if err := s.Insert("m", Tags{"bad key": "v"}, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("space in tag key accepted")
	}
	if err := s.Insert("m", Tags{"k": "a,b"}, t0, map[string]float64{"x": 1}); err == nil {
		t.Error("comma in tag value accepted")
	}
	if err := s.Insert("m", nil, t0, nil); err == nil {
		t.Error("fieldless point accepted")
	}
}

func TestOutOfOrderInsertKeptSorted(t *testing.T) {
	s := NewStore()
	times := []int{5, 1, 3, 2, 4, 0}
	for _, h := range times {
		s.Insert("m", nil, t0.Add(time.Duration(h)*time.Hour), map[string]float64{"v": float64(h)})
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})[0]
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
	s.Insert("m", Tags{"a": "1"}, t0, map[string]float64{"v": 1})
	s.Insert("m", Tags{"a": "2"}, t0, map[string]float64{"v": 2})
	s.Insert("m", Tags{"a": "1", "b": "x"}, t0, map[string]float64{"v": 3})
	if s.SeriesCount() != 3 {
		t.Errorf("series = %d, want 3", s.SeriesCount())
	}
	if got := s.Query("m", Tags{"a": "1"}, time.Time{}, time.Time{}); len(got) != 2 {
		t.Errorf("partial tag match returned %d series", len(got))
	}
}

// Regression: Query used to return the store's own Tags and Point.Fields
// maps, so callers mutating a result silently corrupted stored samples.
func TestQueryResultsDoNotAliasStore(t *testing.T) {
	s := NewStore()
	tags := Tags{"server": "7"}
	if err := s.Insert("m", tags, t0, map[string]float64{"mbps": 100}); err != nil {
		t.Fatal(err)
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Fatalf("query returned %d series", len(got))
	}
	got[0].Tags["server"] = "evil"
	got[0].Tags["extra"] = "x"
	got[0].Points[0].Fields["mbps"] = -1
	got[0].Points[0].Fields["injected"] = 42

	again := s.Query("m", nil, time.Time{}, time.Time{})
	if len(again) != 1 {
		t.Fatalf("re-query returned %d series", len(again))
	}
	if v := again[0].Tags["server"]; v != "7" {
		t.Errorf("stored tag mutated through query result: server = %q", v)
	}
	if _, ok := again[0].Tags["extra"]; ok {
		t.Error("tag added through query result reached the store")
	}
	if v := again[0].Points[0].Fields["mbps"]; v != 100 {
		t.Errorf("stored field mutated through query result: mbps = %v", v)
	}
	if _, ok := again[0].Points[0].Fields["injected"]; ok {
		t.Error("field added through query result reached the store")
	}
}

// Property: random stores round-trip through sealed blocks.
func TestRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		return sealedMatchesUnsealed(t, seed, func(s *Store) error {
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 30; i++ {
				tags := Tags{"s": string(rune('a' + rng.Intn(5)))}
				at := t0.Add(time.Duration(rng.Intn(1000)) * time.Minute)
				if err := s.Insert("m", tags, at, map[string]float64{"v": rng.Float64() * 1000}); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: sealed blocks round-trip the edge cases scenario fixtures lean
// on — negative and zero (epoch) timestamps, float fields down to tiny
// exponents (1e-07 and friends), multi-field points, and tag-less series.
// Seal → Query must preserve every value exactly.
func TestRoundTripEdgeCasesProperty(t *testing.T) {
	fieldNames := []string{"v", "mbps", "rtt_ms", "loss"}
	f := func(seed int64) bool {
		return sealedMatchesUnsealed(t, seed, func(s *Store) error {
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
				if err := s.Insert("m", tags, at, fields); err != nil {
					return err
				}
			}
			return nil
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// sealedMatchesUnsealed runs the same inserts against a store that seals
// every four points and one that never seals, seals what the first still
// holds in its tails, and reports whether both answer the whole-store query
// with bit-exact fields and timestamps.
func sealedMatchesUnsealed(t *testing.T, seed int64, insert func(*Store) error) bool {
	sealed, plain := NewStore(), NewStore()
	sealed.sealThreshold, plain.sealThreshold = 4, 0
	for _, s := range []*Store{sealed, plain} {
		if err := insert(s); err != nil {
			t.Logf("seed %d: insert: %v", seed, err)
			return false
		}
	}
	for i := range sealed.shards {
		for _, sr := range sealed.shards[i].series {
			if sr.tail.len() > 0 {
				sr.seal()
			}
		}
	}
	if !reflect.DeepEqual(plain.Query("m", nil, time.Time{}, time.Time{}), sealed.Query("m", nil, time.Time{}, time.Time{})) {
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
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := Tags{"worker": string(rune('a' + g))}
			for i := 0; i < points; i++ {
				at := t0.Add(time.Duration(i) * time.Minute)
				if err := s.Insert("m", tags, at, map[string]float64{"v": float64(i)}); err != nil {
					errs[g] = err
					return
				}
				// Interleave reads with writes.
				if i%10 == 0 {
					s.Query("m", tags, time.Time{}, time.Time{})
					s.SeriesCount()
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if s.SeriesCount() != goroutines {
		t.Errorf("series = %d, want %d", s.SeriesCount(), goroutines)
	}
	for g := 0; g < goroutines; g++ {
		got := s.Query("m", Tags{"worker": string(rune('a' + g))}, time.Time{}, time.Time{})
		if len(got) != 1 || len(got[0].Points) != points {
			t.Errorf("worker %d: lost points: %d series", g, len(got))
		}
	}
}
