package tsdb

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"
)

// --- Codec round trips -----------------------------------------------------------

// pointsEqual compares by timestamp nanosecond and field bit pattern, the
// sealed-block purity contract.
func pointsEqual(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Time.UnixNano() != b[i].Time.UnixNano() {
			return false
		}
		if len(a[i].Fields) != len(b[i].Fields) {
			return false
		}
		for k, v := range a[i].Fields {
			w, ok := b[i].Fields[k]
			if !ok || math.Float64bits(v) != math.Float64bits(w) {
				return false
			}
		}
	}
	return true
}

func sortedTimes(ns []int64) []time.Time {
	out := make([]time.Time, len(ns))
	for i, v := range ns {
		out[i] = time.Unix(0, v).UTC()
	}
	return out
}

// TestBlockRoundTrip pins the codec on the shapes the issue calls out:
// pre-epoch timestamps, NaN/±Inf/denormal floats, constant and monotone
// series, single-sample blocks, and sparse fields.
func TestBlockRoundTrip(t *testing.T) {
	nan := math.Float64frombits(0x7ff8000000000001)
	cases := []struct {
		name string
		pts  []Point
	}{
		{"single", []Point{{Time: time.Unix(0, 42).UTC(), Fields: map[string]float64{"mbps": 1.5}}}},
		{"pre-epoch", []Point{
			{Time: time.Unix(0, -86400e9).UTC(), Fields: map[string]float64{"v": -1}},
			{Time: time.Unix(0, 0).UTC(), Fields: map[string]float64{"v": 0}},
			{Time: time.Unix(0, 1).UTC(), Fields: map[string]float64{"v": 1}},
		}},
		{"specials", []Point{
			{Time: time.Unix(1, 0).UTC(), Fields: map[string]float64{"v": nan}},
			{Time: time.Unix(2, 0).UTC(), Fields: map[string]float64{"v": math.Inf(1)}},
			{Time: time.Unix(3, 0).UTC(), Fields: map[string]float64{"v": math.Inf(-1)}},
			{Time: time.Unix(4, 0).UTC(), Fields: map[string]float64{"v": 5e-324}},
			{Time: time.Unix(5, 0).UTC(), Fields: map[string]float64{"v": math.Copysign(0, -1)}},
		}},
		{"constant", func() []Point {
			pts := make([]Point, 100)
			for i := range pts {
				pts[i] = Point{Time: time.Unix(int64(i)*3600, 0).UTC(), Fields: map[string]float64{"mbps": 250}}
			}
			return pts
		}()},
		{"monotone", func() []Point {
			pts := make([]Point, 100)
			for i := range pts {
				pts[i] = Point{Time: time.Unix(int64(i), 0).UTC(), Fields: map[string]float64{"v": float64(i) * 1.25}}
			}
			return pts
		}()},
		{"sparse-fields", []Point{
			{Time: time.Unix(1, 0).UTC(), Fields: map[string]float64{"mbps": 1, "rtt_ms": 2}},
			{Time: time.Unix(2, 0).UTC(), Fields: map[string]float64{"mbps": 3}},
			{Time: time.Unix(3, 0).UTC(), Fields: map[string]float64{"rtt_ms": 4, "loss": 0.1}},
			{Time: time.Unix(4, 0).UTC(), Fields: map[string]float64{"loss": 0}},
		}},
		{"duplicate-times", []Point{
			{Time: time.Unix(7, 0).UTC(), Fields: map[string]float64{"v": 1}},
			{Time: time.Unix(7, 0).UTC(), Fields: map[string]float64{"v": 2}},
			{Time: time.Unix(7, 0).UTC(), Fields: map[string]float64{"v": 3}},
		}},
	}
	for _, tc := range cases {
		b := encodeBlock(tc.pts)
		got, err := b.decode(nil)
		if err != nil {
			t.Fatalf("%s: decode: %v", tc.name, err)
		}
		if !pointsEqual(tc.pts, got) {
			t.Fatalf("%s: round trip drifted:\n in: %v\nout: %v", tc.name, tc.pts, got)
		}
		if b.minNs != tc.pts[0].Time.UnixNano() || b.maxNs != tc.pts[len(tc.pts)-1].Time.UnixNano() {
			t.Fatalf("%s: bad bounds [%d, %d]", tc.name, b.minNs, b.maxNs)
		}
	}
}

// TestBlockRoundTripRandom is the property test: arbitrary sorted
// timestamps, arbitrary bit-pattern floats, random field sparsity.
func TestBlockRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	fields := []string{"mbps", "rtt_ms", "loss"}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300) + 1
		ns := make([]int64, n)
		cur := rng.Int63n(2e18) - 1e18
		for i := range ns {
			ns[i] = cur
			cur += rng.Int63n(7200e9) // includes zero deltas
		}
		times := sortedTimes(ns)
		pts := make([]Point, n)
		for i := range pts {
			f := make(map[string]float64)
			for _, name := range fields {
				if rng.Intn(4) == 0 {
					continue // sparse
				}
				f[name] = math.Float64frombits(rng.Uint64())
			}
			if len(f) == 0 {
				f["v"] = float64(i)
			}
			pts[i] = Point{Time: times[i], Fields: f}
		}
		b := encodeBlock(pts)
		got, err := b.decode(nil)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if !pointsEqual(pts, got) {
			t.Fatalf("trial %d: round trip drifted", trial)
		}
	}
}

// FuzzBlockRoundTrip drives the codec from raw fuzz input: bytes become
// timestamps deltas and value bit patterns. The invariant under test is the
// sealed-block purity contract — encode→decode == input, bit for bit.
func FuzzBlockRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17})
	f.Add([]byte{0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0xff, 0x00, 0x80})
	f.Add(bytes.Repeat([]byte{0x42}, 64))
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) < 17 {
			return
		}
		rng := rand.New(rand.NewSource(int64(raw[0])))
		n := int(raw[1])%64 + 1
		cur := int64(raw[2])<<40 - 1 // mix of pre/post epoch starts
		pts := make([]Point, 0, n)
		off := 3
		next := func() byte {
			b := raw[off%len(raw)]
			off++
			return b
		}
		for i := 0; i < n; i++ {
			cur += int64(next()) * 1e9
			var bits uint64
			for j := 0; j < 8; j++ {
				bits = bits<<8 | uint64(next())
			}
			f := map[string]float64{"v": math.Float64frombits(bits)}
			if next()%2 == 0 {
				f["w"] = float64(rng.NormFloat64())
			}
			pts = append(pts, Point{Time: time.Unix(0, cur).UTC(), Fields: f})
		}
		b := encodeBlock(pts)
		got, err := b.decode(nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !pointsEqual(pts, got) {
			t.Fatal("round trip drifted")
		}
	})
}

// --- Store behaviour with sealing ------------------------------------------------

// fillStores inserts the same pseudo-random campaign-shaped data into every
// store passed in.
func fillStores(t testing.TB, n int, stores ...*Store) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < n; i++ {
		tags := Tags{"server": string(rune('a' + i%3)), "tier": "premium"}
		at := base.Add(time.Duration(i/3) * time.Hour)
		fields := map[string]float64{"mbps": rng.Float64() * 1000, "rtt_ms": rng.Float64() * 100}
		for _, s := range stores {
			if err := s.Insert("speedtest", tags, at, fields); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSealedStoreMatchesUnsealed pins that sealing is invisible: Query
// results are identical whether blocks are enabled (small threshold, many
// blocks) or disabled.
func TestSealedStoreMatchesUnsealed(t *testing.T) {
	sealed, plain := NewStore(), NewStore()
	sealed.SetSealThreshold(16)
	plain.SetSealThreshold(0)
	fillStores(t, 500, sealed, plain)

	blocks, pts, _ := sealed.BlockStats()
	if blocks == 0 || pts == 0 {
		t.Fatalf("expected sealed blocks, got %d blocks / %d points", blocks, pts)
	}
	if b, p, _ := plain.BlockStats(); b != 0 || p != 0 {
		t.Fatalf("plain store sealed anyway: %d blocks / %d points", b, p)
	}

	qs := sealed.Query("speedtest", nil, time.Time{}, time.Time{})
	qp := plain.Query("speedtest", nil, time.Time{}, time.Time{})
	if !reflect.DeepEqual(qs, qp) {
		t.Fatal("sealed Query differs from unsealed")
	}

	// Range query crossing block boundaries.
	from := time.Date(2020, 5, 3, 7, 0, 0, 0, time.UTC)
	to := time.Date(2020, 5, 5, 19, 0, 0, 0, time.UTC)
	if !reflect.DeepEqual(
		sealed.Query("speedtest", Tags{"server": "a"}, from, to),
		plain.Query("speedtest", Tags{"server": "a"}, from, to),
	) {
		t.Fatal("sealed range Query differs from unsealed")
	}
}

// TestSealedOutOfOrderInsertReopens covers the reopen path: a point older
// than the sealed range must land in its sorted position.
func TestSealedOutOfOrderInsertReopens(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if err := s.Insert("m", Tags{"k": "v"}, base.Add(time.Duration(i)*time.Hour), map[string]float64{"v": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if blocks, _, _ := s.BlockStats(); blocks == 0 {
		t.Fatal("expected at least one sealed block")
	}
	// Before everything, and into the middle of the sealed range.
	late := []time.Time{base.Add(-time.Hour), base.Add(90 * time.Minute)}
	for i, at := range late {
		if err := s.Insert("m", Tags{"k": "v"}, at, map[string]float64{"v": -float64(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})
	if len(got) != 1 {
		t.Fatalf("got %d series", len(got))
	}
	pts := got[0].Points
	if len(pts) != 22 {
		t.Fatalf("got %d points, want 22", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Time.Before(pts[i-1].Time) {
			t.Fatalf("points out of order at %d: %v after %v", i, pts[i].Time, pts[i-1].Time)
		}
	}
	if !pts[0].Time.Equal(base.Add(-time.Hour)) {
		t.Fatalf("first point %v, want %v", pts[0].Time, base.Add(-time.Hour))
	}
}

// TestBlockStatsCompression pins the headline storage win: campaign-shaped
// hourly data must seal to well under the raw 16-byte (ts, value) pair
// per sample per field.
func TestBlockStatsCompression(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(512)
	fillStores(t, 3*2048, s)
	_, pts, encoded := s.BlockStats()
	if pts == 0 {
		t.Fatal("nothing sealed")
	}
	perSample := float64(encoded) / float64(2*pts) // two fields per point
	if perSample >= 16 {
		t.Fatalf("sealed bytes/sample = %.1f, want < 16 (raw pair size)", perSample)
	}
}

// --- QueryView -------------------------------------------------------------------

func TestQueryViewMatchesQuery(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(16)
	fillStores(t, 300, s)
	from := time.Date(2020, 5, 2, 0, 0, 0, 0, time.UTC)
	q := s.Query("speedtest", Tags{"server": "b"}, from, time.Time{})
	v := s.QueryView("speedtest", Tags{"server": "b"}, from, time.Time{})
	if !reflect.DeepEqual(q, v) {
		t.Fatal("QueryView differs from Query")
	}
	if !reflect.DeepEqual(s.Query("speedtest", nil, time.Time{}, time.Time{}),
		s.QueryView("speedtest", nil, time.Time{}, time.Time{})) {
		t.Fatal("unbounded QueryView differs from Query")
	}
}

// TestQueryViewAliasesStore pins the aliasing contract both ways: the view
// shares Tags with the store (no copy on the read path) while Query copies
// them, and points — materialised from the store's columns on every call —
// belong to the caller in both, so a reader holding a view stays correct
// across later inserts.
func TestQueryViewAliasesStore(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(0) // all points in the tail
	at := time.Unix(100, 0).UTC()
	if err := s.Insert("m", Tags{"k": "v"}, at, map[string]float64{"f": 1}); err != nil {
		t.Fatal(err)
	}

	view := s.QueryView("m", nil, time.Time{}, time.Time{})
	copied := s.Query("m", nil, time.Time{}, time.Time{})

	sh := s.shardFor(seriesKey("m", Tags{"k": "v"}))
	stored := sh.series[seriesKey("m", Tags{"k": "v"})]

	if reflect.ValueOf(view[0].Tags).Pointer() != reflect.ValueOf(stored.tags).Pointer() {
		t.Fatal("QueryView Tags should alias the store")
	}
	if reflect.ValueOf(copied[0].Tags).Pointer() == reflect.ValueOf(stored.tags).Pointer() {
		t.Fatal("Query Tags must not alias the store")
	}

	// Writing through a view's point must not reach the store, and a later
	// insert must not disturb the view's already-captured points.
	view[0].Points[0].Fields["f"] = -1
	if err := s.Insert("m", Tags{"k": "v"}, at.Add(time.Hour), map[string]float64{"f": 2}); err != nil {
		t.Fatal(err)
	}
	if len(view[0].Points) != 1 || view[0].Points[0].Fields["f"] != -1 {
		t.Fatal("view mutated by subsequent insert")
	}
	if again := s.QueryView("m", nil, time.Time{}, time.Time{}); len(again[0].Points) != 2 || again[0].Points[0].Fields["f"] != 1 {
		t.Fatalf("store changed through a view's point: %+v", again[0].Points)
	}
}

// --- Concurrency -----------------------------------------------------------------

// TestWriteBlocksConcurrentWithInserts is the -race pin for the
// shard-by-shard snapshot: serialisation runs while writers insert, and
// every serialised store must itself open and decode cleanly.
func TestWriteBlocksConcurrentWithInserts(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(32)
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tags := Tags{"server": string(rune('a' + g))}
			for i := 0; i < 600; i++ {
				at := base.Add(time.Duration(i) * time.Minute)
				if err := s.Insert("speedtest", tags, at, map[string]float64{"mbps": float64(i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for round := 0; round < 6; round++ {
		if _, err := writeBlockFile(t, s).Query("speedtest", nil, time.Time{}, time.Time{}); err != nil {
			t.Fatalf("round %d: serialised store does not decode: %v", round, err)
		}
	}
	wg.Wait()
}
