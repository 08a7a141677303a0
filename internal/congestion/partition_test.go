package congestion

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

// DayTally is the per-threshold reference of the day sweep: the qualifying
// days (minSamples <= 0 means MinDaySamples) and those with V > h, counted
// by one scan of the day split.
func (p *Partition) DayTally(h float64, minSamples int) (congested, total int) {
	if minSamples <= 0 {
		minSamples = MinDaySamples
	}
	for i := range p.days {
		if p.days[i].Samples < minSamples {
			continue
		}
		total++
		if p.days[i].V > h {
			congested++
		}
	}
	return congested, total
}

// HourTally is the per-threshold reference of the hour sweep — one
// series' share of a Fig. 2b point: every sample on a qualifying day is an
// hour, and an event when its VH(s,t) exceeds h; a zero-peak day's samples
// are hours that are never events, so events matches len(Detector.Events)
// at the same threshold.
func (p *Partition) HourTally(h float64, minSamples int) (events, hours int) {
	if minSamples <= 0 {
		minSamples = MinDaySamples
	}
	for i := range p.samples {
		day := &p.days[p.dayOf[i]]
		if day.Samples < minSamples {
			continue
		}
		hours++
		if day.Tmax > 0 && (day.Tmax-p.samples[i].Mbps)/day.Tmax > h {
			events++
		}
	}
	return events, hours
}

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

// sameSweepPoint reports whether two sweep points hold the same bits, so a
// NaN threshold matches itself.
func sameSweepPoint(a, b SweepPoint) bool {
	return math.Float64bits(a.H) == math.Float64bits(b.H) && math.Float64bits(a.Fraction) == math.Float64bits(b.Fraction)
}

// TestSweepsMatchPerThreshold holds both one-pass sweeps to the
// per-threshold references DayTally and HourTally, point by point and bit
// for bit: over sorted and shuffled series with zero-peak days (their
// samples are hours that are never events) and short days, at minSamples
// 0, 3 and 20, against grids that are unsorted and repeated, reach below 0
// and above 1, hold ±Inf and NaN, and hit realised values of V and VH
// exactly — fixed ones, and random draws from all of these.
func TestSweepsMatchPerThreshold(t *testing.T) {
	series := []Series{randomSeries(31, 11, false), randomSeries(32, 9, true), randomSeries(33, 3, false)}
	parts := Partitions(series)
	// Realised values: every day's V and a spread of samples' VH.
	var realised []float64
	for _, p := range parts {
		for i, d := range p.days {
			realised = append(realised, d.V)
			if d.Tmax > 0 {
				for j := range p.samples {
					if int(p.dayOf[j]) == i && j%7 == 0 {
						realised = append(realised, (d.Tmax-p.samples[j].Mbps)/d.Tmax)
					}
				}
			}
		}
	}
	special := []float64{0, -0.25, 1, 1.5, math.Inf(1), math.Inf(-1), math.NaN(), 0.5, 0.5}
	grids := [][]float64{
		{0, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.85, 0.9, 0.95, 1},
		{0.9, 0.1, 0.5, 0.1, -3, 7, 0.5},
		special,
		append(append([]float64{}, realised...), special...),
		{math.NaN()},
		{math.Inf(-1), math.Inf(1)},
		{0.3},
		{0.3, 0.3 + 1e-300},
		nil,
	}
	rng := rand.New(rand.NewSource(46))
	for trial := 0; trial < 200; trial++ {
		g := make([]float64, 1+rng.Intn(30))
		for i := range g {
			switch rng.Intn(5) {
			case 0:
				g[i] = special[rng.Intn(len(special))]
			case 1:
				g[i] = realised[rng.Intn(len(realised))]
			case 2:
				g[i] = math.Round(rng.Float64()*20) / 20
			default:
				g[i] = 2.5*rng.Float64() - 0.75
			}
		}
		grids = append(grids, g)
	}
	for _, min := range []int{0, 3, 20} {
		for gi, hs := range grids {
			days, hours := SweepDaysPartitioned(parts, hs, min), SweepHoursPartitioned(parts, hs, min)
			if len(days) != len(hs) || len(hours) != len(hs) {
				t.Fatalf("min=%d grid %d: %d/%d points for %d thresholds", min, gi, len(days), len(hours), len(hs))
			}
			for i, h := range hs {
				var dc, dt, he, ht int
				for _, p := range parts {
					c, n := p.DayTally(h, min)
					e, m := p.HourTally(h, min)
					dc, dt, he, ht = dc+c, dt+n, he+e, ht+m
				}
				want := [2]SweepPoint{{H: h}, {H: h}}
				if dt > 0 {
					want[0].Fraction = float64(dc) / float64(dt)
				}
				if ht > 0 {
					want[1].Fraction = float64(he) / float64(ht)
				}
				if !sameSweepPoint(days[i], want[0]) || !sameSweepPoint(hours[i], want[1]) {
					t.Fatalf("min=%d grid %d h=%v: sweeps (%v, %v), references (%v, %v)",
						min, gi, h, days[i], hours[i], want[0], want[1])
				}
			}
		}
	}
}
