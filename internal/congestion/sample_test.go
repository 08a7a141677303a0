package congestion

import (
	"reflect"
	"testing"
	"time"
	"unsafe"
)

// hasPointers reports whether a value of type t holds anything the garbage
// collector must trace.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// TestSampleIsPointerFree pins Sample's representation: 16 bytes and
// nothing to trace, so a time.Time (24 bytes, a *Location inside) cannot
// creep back into the series buffers a grouping allocates.
func TestSampleIsPointerFree(t *testing.T) {
	if size := unsafe.Sizeof(Sample{}); size != 16 {
		t.Errorf("Sample is %d bytes, want 16", size)
	}
	if hasPointers(reflect.TypeOf(Sample{})) {
		t.Errorf("Sample holds a pointer")
	}
	if !hasPointers(reflect.TypeOf(time.Time{})) {
		t.Fatalf("hasPointers misses the *Location inside a time.Time")
	}
}

// TestSampleT holds T to time.Unix(0, ns).UTC() where a conversion could
// slip: before the epoch, negative within a second, and on a day boundary.
func TestSampleT(t *testing.T) {
	for _, ns := range []int64{
		0,
		-1,
		-999_999_999,
		-1_000_000_001,
		time.Date(1969, 12, 31, 23, 0, 0, 0, time.UTC).UnixNano(),
		time.Date(2020, 5, 2, 0, 0, 0, 0, time.UTC).UnixNano(),
		time.Date(2020, 5, 2, 0, 0, 0, 0, time.UTC).UnixNano() - 1,
		t0.UnixNano() + 123_456_789,
	} {
		s := Sample{Unix: ns, Mbps: 1}
		want := time.Unix(0, ns).UTC()
		if got := s.T(); !got.Equal(want) || got.Location() != time.UTC {
			t.Errorf("Sample{Unix: %d}.T() = %v, want %v", ns, got, want)
		}
		if got := s.T().UnixNano(); got != ns {
			t.Errorf("Sample{Unix: %d}.T() round-trips to %d", ns, got)
		}
	}
}

// TestDayOfFloors pins DayOf at both sides of the epoch and of a day
// boundary.
func TestDayOfFloors(t *testing.T) {
	day := int64(24 * time.Hour)
	for _, c := range []struct {
		ns   int64
		want int
	}{
		{0, 0},
		{day - 1, 0},
		{day, 1},
		{-1, -1},
		{-day, -1},
		{-day - 1, -2},
		{t0.UnixNano(), int(t0.Unix() / 86400)},
	} {
		if got := DayOf(c.ns); got != c.want {
			t.Errorf("DayOf(%d) = %d, want %d", c.ns, got, c.want)
		}
	}
}

// TestEpochStraddlingSeriesHasTwoDays runs a partition over eight hourly
// samples from 1969-12-31 20:00 to 1970-01-01 03:00 UTC: two calendar days,
// each with its own peak and trough. A day function that truncates toward
// zero puts both in day 0 and reports one day with their mixed V.
func TestEpochStraddlingSeriesHasTwoDays(t *testing.T) {
	start := time.Date(1969, 12, 31, 20, 0, 0, 0, time.UTC)
	mbps := []float64{100, 50, 100, 100, 400, 400, 300, 400}
	s := Series{PairID: "epoch"}
	for h, v := range mbps {
		s.Samples = append(s.Samples, Sample{Unix: start.Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: v})
	}
	days := referenceDays(NewPartition(s))
	if len(days) != 2 {
		t.Fatalf("%d days, want 2: %+v", len(days), days)
	}
	for i, want := range []Day{
		{Day: -1, Tmax: 100, Tmin: 50, V: 0.5, Samples: 4},
		{Day: 0, Tmax: 400, Tmin: 300, V: 0.25, Samples: 4},
	} {
		if days[i] != want {
			t.Errorf("day %d = %+v, want %+v", i, days[i], want)
		}
	}
}
