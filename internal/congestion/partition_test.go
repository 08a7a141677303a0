package congestion

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// randomSeries exercises both partition build paths: time-sorted samples
// (the grouped-campaign shape) and shuffled ones (the map fallback), with
// occasional zero-throughput days and a short day that misses the
// min-samples cut.
func randomSeries(seed int64, days int, shuffled bool) Series {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	s := Series{PairID: "part-test"}
	for d := 0; d < days; d++ {
		hours := 24
		if d == days/2 {
			hours = 2 // below the default min-samples threshold
		}
		for h := 0; h < hours; h++ {
			v := 200 + 150*rng.Float64()
			if d%5 == 3 {
				v = 0 // dead day: Tmax <= 0
			}
			if h >= 19 && h <= 22 {
				v *= 0.3
			}
			s.Samples = append(s.Samples, Sample{Unix: start.AddDate(0, 0, d).Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: v})
		}
	}
	if shuffled {
		rng.Shuffle(len(s.Samples), func(i, j int) {
			s.Samples[i], s.Samples[j] = s.Samples[j], s.Samples[i]
		})
	}
	return s
}

// naiveSplitDays is the pre-partition implementation, the reference the
// memoized decomposition must reproduce exactly.
func naiveSplitDays(s Series, minSamples int) []Day {
	if minSamples <= 0 {
		minSamples = 4
	}
	byDay := make(map[int][]float64)
	for _, smp := range s.Samples {
		byDay[DayOf(smp.Unix)] = append(byDay[DayOf(smp.Unix)], smp.Mbps)
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	var out []Day
	for _, d := range days {
		xs := byDay[d]
		if len(xs) < minSamples {
			continue
		}
		min, max := xs[0], xs[0]
		for _, x := range xs[1:] {
			if x < min {
				min = x
			}
			if x > max {
				max = x
			}
		}
		v := 0.0
		if max > 0 {
			v = (max - min) / max
		}
		out = append(out, Day{Day: d, Tmax: max, Tmin: min, V: v, Samples: len(xs)})
	}
	return out
}

// naiveFractions is the pre-partition form of one Fig. 2 point — the
// fractions of pair-days with V > h and of pair-hours with VH > h — from a
// full re-split per series and threshold.
func naiveFractions(series []Series, h float64) (days, hours float64) {
	det := Detector{H: h}
	var dTot, dCong, hTot, hCong int
	for _, s := range series {
		for _, d := range naiveSplitDays(s, 0) {
			dTot++
			hTot += d.Samples
			if d.V > h {
				dCong++
			}
		}
		hCong += len(det.Events(s))
	}
	if dTot > 0 {
		days = float64(dCong) / float64(dTot)
	}
	if hTot > 0 {
		hours = float64(hCong) / float64(hTot)
	}
	return days, hours
}

func TestPartitionDaysMatchesNaive(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		s := randomSeries(21, 14, shuffled)
		p := NewPartition(s)
		if got, want := referenceDays(p), naiveSplitDays(s, MinDaySamples); !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffled=%v: Days diverged\n got %+v\nwant %+v", shuffled, got, want)
		}
		for _, min := range []int{1, 4, 10} {
			want := naiveSplitDays(s, min)
			wantCong := 0
			for _, d := range want {
				if d.V > 0.5 {
					wantCong++
				}
			}
			if cong, total := p.DayTally(0.5, min); cong != wantCong || total != len(want) {
				t.Fatalf("shuffled=%v min=%d: DayTally %d/%d, want %d/%d", shuffled, min, cong, total, wantCong, len(want))
			}
		}
	}
}

func TestPartitionTalliesMatchFractions(t *testing.T) {
	series := []Series{randomSeries(1, 10, false), randomSeries(2, 10, true), randomSeries(3, 3, false)}
	for _, h := range []float64{0, 0.25, 0.5, 0.9} {
		wantDays, wantHours := naiveFractions(series, h)
		// Recompute from a shared partition set, as the sweeps do.
		parts := Partitions(series)
		d := SweepDaysPartitioned(parts, []float64{h}, 0)[0].Fraction
		hr := SweepHoursPartitioned(parts, []float64{h}, 0)[0].Fraction
		if d != wantDays {
			t.Errorf("h=%v: day fraction %v != %v", h, d, wantDays)
		}
		if hr != wantHours {
			t.Errorf("h=%v: hour fraction %v != %v", h, hr, wantHours)
		}
	}
}

func TestSweepsMatchPerThresholdFractions(t *testing.T) {
	series := []Series{randomSeries(5, 12, false), randomSeries(6, 12, true)}
	hs := []float64{0, 0.1, 0.3, 0.5, 0.7, 1}
	daySweep := SweepDaysPartitioned(Partitions(series), hs, 0)
	hourSweep := SweepHoursPartitioned(Partitions(series), hs, 0)
	for i, h := range hs {
		wantDays, wantHours := naiveFractions(series, h)
		if daySweep[i].Fraction != wantDays {
			t.Errorf("day sweep at %v: %v != %v", h, daySweep[i].Fraction, wantDays)
		}
		if hourSweep[i].Fraction != wantHours {
			t.Errorf("hour sweep at %v: %v != %v", h, hourSweep[i].Fraction, wantHours)
		}
	}
}

func TestEventsInMatchesEvents(t *testing.T) {
	for _, shuffled := range []bool{false, true} {
		s := randomSeries(9, 10, shuffled)
		det := NewDetector()
		want := make([]time.Time, 0)
		// Events via the one-shot path and via an explicit partition.
		want = append(want, det.Events(s)...)
		got := det.EventsIn(NewPartition(s))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("shuffled=%v: EventsIn diverged (%d vs %d events)", shuffled, len(got), len(want))
		}
	}
}

func TestHourTallyCountsDeadDayHours(t *testing.T) {
	// A zero-peak day's samples are measured hours but never events.
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	s := Series{PairID: "dead"}
	for h := 0; h < 24; h++ {
		s.Samples = append(s.Samples, Sample{Unix: start.Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: 0})
	}
	p := NewPartition(s)
	events, hours := p.HourTally(0.5, 0)
	if events != 0 || hours != 24 {
		t.Errorf("dead day: events=%d hours=%d, want 0/24", events, hours)
	}
	if got := SweepHoursPartitioned([]*Partition{p}, []float64{0.5}, 0)[0].Fraction; got != 0 {
		t.Errorf("dead-day fraction = %v", got)
	}
}

func TestPartitionEmptySeries(t *testing.T) {
	p := NewPartition(Series{PairID: "empty"})
	if days := referenceDays(p); len(days) != 0 {
		t.Errorf("empty series has %d days", len(days))
	}
	if e, h := p.HourTally(0.5, 0); e != 0 || h != 0 {
		t.Errorf("empty tally: %d/%d", e, h)
	}
}
