package tsdb

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestBoundInsertMatchesMapInsert is the one-write-path property: the same
// random point stream — duplicate timestamps, points arriving out of order
// across a seal boundary, one field missing on some points — driven through
// the map API (Store.Insert), the handle's map API and the bound-handle API
// leaves three stores that cannot be told apart.
func TestBoundInsertMatchesMapInsert(t *testing.T) {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threshold := []int{0, 5, 32}[seed%3]
		byMap, byHandle, byBound := NewStore(), NewStore(), NewStore()
		for _, s := range []*Store{byMap, byHandle, byBound} {
			s.SetSealThreshold(threshold)
		}
		type binding struct {
			h          *Handle
			full, part *BoundHandle // all three fields, and the two a sparse point carries
		}
		bindings := make([]binding, 3)
		tagsOf := func(sr int) Tags { return Tags{"server": string(rune('a' + sr))} }
		for sr := range bindings {
			h, err := byHandle.Handle("speedtest", tagsOf(sr))
			if err != nil {
				t.Fatal(err)
			}
			hb, err := byBound.Handle("speedtest", tagsOf(sr))
			if err != nil {
				t.Fatal(err)
			}
			full, err := hb.Bind("mbps", "rtt_ms", "loss")
			if err != nil {
				t.Fatal(err)
			}
			part, err := hb.Bind("loss", "mbps")
			if err != nil {
				t.Fatal(err)
			}
			bindings[sr] = binding{h: h, full: full, part: part}
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
			var err1, err2, err3 error
			if rng.Intn(4) == 0 {
				fields := map[string]float64{"mbps": mbps, "loss": loss}
				err1 = byMap.Insert("speedtest", tagsOf(sr), at, fields)
				err2 = b.h.Insert(at, fields)
				err3 = b.part.Insert(at, loss, mbps)
			} else {
				fields := map[string]float64{"mbps": mbps, "rtt_ms": rtt, "loss": loss}
				err1 = byMap.Insert("speedtest", tagsOf(sr), at, fields)
				err2 = b.h.Insert(at, fields)
				err3 = b.full.Insert(at, mbps, rtt, loss)
			}
			for _, err := range []error{err1, err2, err3} {
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		want := byMap.Query("speedtest", nil, time.Time{}, time.Time{})
		var wantBlocks bytes.Buffer
		if _, err := byMap.WriteBlocks(&wantBlocks); err != nil {
			t.Fatal(err)
		}
		wb, wp, wbytes := byMap.BlockStats()
		if threshold > 0 && wb == 0 {
			t.Fatalf("seed %d: nothing sealed at threshold %d", seed, threshold)
		}
		for name, s := range map[string]*Store{"handle": byHandle, "bound": byBound} {
			if got := s.Query("speedtest", nil, time.Time{}, time.Time{}); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: %s Query differs from the map API's", seed, name)
			}
			var blocks bytes.Buffer
			if _, err := s.WriteBlocks(&blocks); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(blocks.Bytes(), wantBlocks.Bytes()) {
				t.Fatalf("seed %d: %s WriteBlocks differs from the map API's", seed, name)
			}
			if b, p, n := s.BlockStats(); b != wb || p != wp || n != wbytes {
				t.Fatalf("seed %d: %s BlockStats = %d/%d/%d, want %d/%d/%d", seed, name, b, p, n, wb, wp, wbytes)
			}
		}
	}
}

// TestBindRejectsBadFields covers the validation Bind does once so that
// BoundHandle.Insert need not.
func TestBindRejectsBadFields(t *testing.T) {
	h, err := NewStore().Handle("m", nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, fields := range [][]string{nil, {""}, {"a b"}, {"v", "v"}} {
		if _, err := h.Bind(fields...); err == nil {
			t.Errorf("Bind(%q) succeeded", fields)
		}
	}
	b, err := h.Bind("v", "w")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Insert(time.Unix(1, 0), 1); err == nil {
		t.Error("Insert with one value for two bound fields succeeded")
	}
}

// TestOutOfOrderRunReopensOnce pins the linear re-seal: the first point
// older than a sealed range reopens the series, every further out-of-order
// point finds it open — no block to decode, none re-encoded — and the first
// in-order append seals everything again.
func TestOutOfOrderRunReopensOnce(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	h, err := s.Handle("m", Tags{"k": "v"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Bind("v")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if err := b.Insert(base.Add(time.Duration(i)*time.Hour), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if blocks, pts, _ := s.BlockStats(); blocks != 2 || pts != 16 {
		t.Fatalf("before: %d blocks / %d points sealed, want 2 / 16", blocks, pts)
	}
	for i := 0; i < 30; i++ {
		if err := b.Insert(base.Add(time.Duration(i)*time.Hour/2), -1); err != nil {
			t.Fatal(err)
		}
		if blocks, _, _ := s.BlockStats(); blocks != 0 {
			t.Fatalf("out-of-order insert %d left %d sealed blocks; the series must stay open", i, blocks)
		}
	}
	if err := b.Insert(base.Add(20*time.Hour), 20); err != nil {
		t.Fatal(err)
	}
	if blocks, pts, _ := s.BlockStats(); blocks != 1 || pts != 51 {
		t.Fatalf("after an in-order append: %d blocks / %d points sealed, want 1 / 51", blocks, pts)
	}
	got := s.Query("m", nil, time.Time{}, time.Time{})
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
	s.SetSealThreshold(0)
	h, err := s.Handle("speedtest", Tags{"server": "1"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.Bind("mbps", "rtt_ms", "loss")
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	i := 0
	insert := func() {
		if err := b.Insert(base.Add(time.Duration(i)*time.Hour), float64(i), 12, 0); err != nil {
			t.Fatal(err)
		}
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
