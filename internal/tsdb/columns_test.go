package tsdb

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestBoundInsertMatchesMapInsert is the one-write-path property: the same
// random point stream — duplicate timestamps, points arriving out of order
// across a seal boundary, one field missing on some points — driven point by
// point in map form (put, a fresh handle bound to each point's own fields in
// name order) and through handles held across the stream (bound in another
// field order) leaves two stores that cannot be told apart.
func TestBoundInsertMatchesMapInsert(t *testing.T) {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threshold := []int{0, 5, 32}[seed%3]
		byMap, byBound := NewStore(), NewStore()
		byMap.sealThreshold, byBound.sealThreshold = threshold, threshold
		type binding struct {
			full, part *BoundHandle // all three fields, and the two a sparse point carries
		}
		bindings := make([]binding, 3)
		tagsOf := func(sr int) Tags { return Tags{"server": string(rune('a' + sr))} }
		for sr := range bindings {
			full := byBound.Bind(tagsOf(sr), "mbps", "rtt_ms", "loss")
			part := byBound.Bind(tagsOf(sr), "loss", "mbps")
			bindings[sr] = binding{full: full, part: part}
		}
		for i := 0; i < 400; i++ {
			sr := rng.Intn(len(bindings))
			at := base.Add(time.Duration(i) * time.Minute)
			switch rng.Intn(8) {
			case 0: // anywhere in the past, often inside a sealed block
				at = base.Add(time.Duration(rng.Intn(i+1)) * time.Minute)
			case 1: // same timestamp as an earlier point
				at = base.Add(time.Duration(i/2*2) * time.Minute)
			}
			mbps, rtt, loss := rng.Float64()*900, rng.Float64()*80, rng.Float64()/100
			b := bindings[sr]
			if rng.Intn(4) == 0 {
				put(byMap, tagsOf(sr), at, map[string]float64{"mbps": mbps, "loss": loss})
				b.part.Insert(at, loss, mbps)
			} else {
				put(byMap, tagsOf(sr), at, map[string]float64{"mbps": mbps, "rtt_ms": rtt, "loss": loss})
				b.full.Insert(at, mbps, rtt, loss)
			}
		}
		wb, wp, wbytes := byMap.BlockStats()
		if threshold > 0 && wb == 0 {
			t.Fatalf("seed %d: nothing sealed at threshold %d", seed, threshold)
		}
		if got, want := byBound.query(nil, time.Time{}, time.Time{}), byMap.query(nil, time.Time{}, time.Time{}); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: bound query differs from the map form's", seed)
		}
		if !reflect.DeepEqual(byBound.Dump(), byMap.Dump()) {
			t.Fatalf("seed %d: bound blocks and tail encode differently from the map form's", seed)
		}
		if b, p, n := byBound.BlockStats(); b != wb || p != wp || n != wbytes {
			t.Fatalf("seed %d: bound BlockStats = %d/%d/%d, want %d/%d/%d", seed, b, p, n, wb, wp, wbytes)
		}
	}
}

// TestOutOfOrderRunReopensOnce pins the linear re-seal: the first point
// older than a sealed range reopens the series, every further out-of-order
// point finds it open — no block to decode, none re-encoded — and the first
// in-order append seals everything again.
func TestOutOfOrderRunReopensOnce(t *testing.T) {
	s := NewStore()
	s.sealThreshold = 8
	b := s.Bind(Tags{"k": "v"}, "v")
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		b.Insert(base.Add(time.Duration(i)*time.Hour), float64(i))
	}
	if blocks, pts, _ := s.BlockStats(); blocks != 2 || pts != 16 {
		t.Fatalf("before: %d blocks / %d points sealed, want 2 / 16", blocks, pts)
	}
	for i := 0; i < 30; i++ {
		b.Insert(base.Add(time.Duration(i)*time.Hour/2), -1)
		if blocks, _, _ := s.BlockStats(); blocks != 0 {
			t.Fatalf("out-of-order insert %d left %d sealed blocks; the series must stay open", i, blocks)
		}
	}
	b.Insert(base.Add(20*time.Hour), 20)
	if blocks, pts, _ := s.BlockStats(); blocks != 1 || pts != 51 {
		t.Fatalf("after an in-order append: %d blocks / %d points sealed, want 1 / 51", blocks, pts)
	}
	got := s.query(nil, time.Time{}, time.Time{})
	if len(got) != 1 || len(got[0].Points) != 51 {
		t.Fatalf("query = %+v", got)
	}
	for i := 1; i < len(got[0].Points); i++ {
		if got[0].Points[i].Time.Before(got[0].Points[i-1].Time) {
			t.Fatalf("points out of order at %d", i)
		}
	}
}

// TestBoundInsertDoesNotAllocate pins the ingest path at zero allocations
// once a series' columns have grown to the seal threshold: no map, no boxed
// key, no per-point object.
func TestBoundInsertDoesNotAllocate(t *testing.T) {
	s := NewStore()
	s.sealThreshold = 0
	b := s.Bind(Tags{"server": "1"}, "mbps", "rtt_ms", "loss")
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	i := 0
	insert := func() {
		b.Insert(base.Add(time.Duration(i)*time.Hour), float64(i), 12, 0)
		i++
	}
	for i < 1024 { // grow the columns: capacity now covers the runs below
		insert()
	}
	if b, _, _ := s.BlockStats(); b != 0 {
		t.Fatal("sealing is off")
	}
	s.DropBefore(base.Add(2000 * time.Hour)) // empty the tail, keep its capacity
	if allocs := testing.AllocsPerRun(500, insert); allocs != 0 {
		t.Fatalf("BoundHandle.Insert allocates %v times per call, want 0", allocs)
	}
}
