package congestion

import (
	"math"
	"testing"
	"time"
)

var t0 = time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)

// flatDaySeries builds `days` of hourly samples at `base` Mbps, dipping to
// `dip` Mbps between hour 19 and 22 on the given dip days.
func flatDaySeries(days int, base, dip float64, dipDays map[int]bool) Series {
	var s Series
	s.PairID = "test-pair"
	for d := 0; d < days; d++ {
		for h := 0; h < 24; h++ {
			v := base
			if dipDays[d] && h >= 19 && h <= 22 {
				v = dip
			}
			s.Samples = append(s.Samples, Sample{Unix: t0.Add(time.Duration(d*24+h) * time.Hour).UnixNano(), Mbps: v})
		}
	}
	return s
}

func TestSplitDaysV(t *testing.T) {
	s := flatDaySeries(3, 400, 100, map[int]bool{1: true})
	days := NewPartition(s).Days(0)
	if len(days) != 3 {
		t.Fatalf("days = %d", len(days))
	}
	if days[0].V != 0 {
		t.Errorf("flat day V = %v", days[0].V)
	}
	// Dip day: V = (400-100)/400 = 0.75.
	if math.Abs(days[1].V-0.75) > 1e-9 {
		t.Errorf("dip day V = %v, want 0.75", days[1].V)
	}
	if days[1].Tmax != 400 || days[1].Tmin != 100 {
		t.Errorf("day summary: %+v", days[1])
	}
	if days[0].Samples != 24 {
		t.Errorf("samples = %d", days[0].Samples)
	}
}

func TestSplitDaysMinSamples(t *testing.T) {
	var s Series
	for h := 0; h < 3; h++ { // only 3 samples in the day
		s.Samples = append(s.Samples, Sample{Unix: t0.Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: 100})
	}
	if days := NewPartition(s).Days(4); len(days) != 0 {
		t.Errorf("under-covered day kept: %v", days)
	}
	if days := NewPartition(s).Days(3); len(days) != 1 {
		t.Errorf("3-sample day dropped at min 3")
	}
}

func TestDetectorCongestedDays(t *testing.T) {
	s := flatDaySeries(10, 400, 150, map[int]bool{2: true, 7: true})
	det := NewDetector()
	if days, _ := NewPartition(s).DayTally(det.H, MinDaySamples); days != 2 {
		t.Fatalf("congested days = %d, want 2", days)
	}
	// Shallow dip below threshold is not congested: V = (400-250)/400 = 0.375.
	s2 := flatDaySeries(5, 400, 250, map[int]bool{1: true})
	if days, _ := NewPartition(s2).DayTally(det.H, MinDaySamples); days != 0 {
		t.Errorf("shallow dip flagged on %d days", days)
	}
}

func TestDetectorEvents(t *testing.T) {
	s := flatDaySeries(2, 400, 100, map[int]bool{0: true})
	det := NewDetector()
	events := det.Events(s)
	// Hours 19-22 of day 0: 4 events.
	if len(events) != 4 {
		t.Fatalf("events = %d, want 4", len(events))
	}
	for _, e := range events {
		if e.VH <= 0.5 {
			t.Errorf("event VH = %v", e.VH)
		}
		if e.Time.Hour() < 19 || e.Time.Hour() > 22 {
			t.Errorf("event at hour %d", e.Time.Hour())
		}
		if e.Tmax != 400 || e.Mbps != 100 {
			t.Errorf("event fields: %+v", e)
		}
	}
}

func TestFractions(t *testing.T) {
	series := []Series{
		flatDaySeries(10, 400, 100, map[int]bool{0: true}),
		flatDaySeries(10, 400, 100, nil),
	}
	parts := Partitions(series)
	fd := SweepDaysPartitioned(parts, []float64{0.5}, 0)[0].Fraction
	if math.Abs(fd-1.0/20) > 1e-9 {
		t.Errorf("fraction days = %v, want 0.05", fd)
	}
	fh := SweepHoursPartitioned(parts, []float64{0.5}, 0)[0].Fraction
	if math.Abs(fh-4.0/480) > 1e-9 {
		t.Errorf("fraction hours = %v, want %v", fh, 4.0/480)
	}
	// H = 0 labels every day with any variation; here flat days are
	// exactly flat so V=0 is not > 0.
	if f := SweepDaysPartitioned(parts, []float64{0}, 0)[0].Fraction; math.Abs(f-1.0/20) > 1e-9 {
		t.Errorf("H=0 fraction = %v", f)
	}
}

func TestSweepMonotone(t *testing.T) {
	series := []Series{flatDaySeries(30, 400, 100, map[int]bool{1: true, 5: true, 9: true})}
	hs := []float64{0, 0.25, 0.5, 0.75, 1}
	sweep := SweepDays(series, hs, 0)
	for i := 1; i < len(sweep); i++ {
		if sweep[i].Fraction > sweep[i-1].Fraction {
			t.Errorf("sweep not non-increasing at %v", sweep[i].H)
		}
	}
	hsweep := SweepHoursPartitioned(Partitions(series), hs, 0)
	for i := 1; i < len(hsweep); i++ {
		if hsweep[i].Fraction > hsweep[i-1].Fraction {
			t.Errorf("hour sweep not non-increasing at %v", hsweep[i].H)
		}
	}
}

func TestElbowThreshold(t *testing.T) {
	// A knee-shaped sweep: high fractions until 0.4, then a sharp drop.
	sweep := []SweepPoint{
		{0.0, 0.95}, {0.1, 0.9}, {0.2, 0.85}, {0.3, 0.8},
		{0.4, 0.5}, {0.5, 0.15}, {0.6, 0.08}, {0.7, 0.05},
		{0.8, 0.03}, {0.9, 0.02}, {1.0, 0.01},
	}
	h, err := ElbowThreshold(sweep)
	if err != nil {
		t.Fatal(err)
	}
	if h < 0.3 || h > 0.6 {
		t.Errorf("elbow at %v, want near 0.4-0.5", h)
	}
	if _, err := ElbowThreshold(sweep[:2]); err == nil {
		t.Error("short sweep: want error")
	}
}

func TestHourlyProbability(t *testing.T) {
	s := flatDaySeries(10, 400, 100, map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true})
	det := NewDetector()
	events := det.Events(s)
	// UTC offset 0: events at hours 19-22 on half the days -> p = 0.5.
	probs := HourlyProbability(s, events, 0)
	for h := 19; h <= 22; h++ {
		if math.Abs(probs[h]-0.5) > 1e-9 {
			t.Errorf("hour %d probability = %v, want 0.5", h, probs[h])
		}
	}
	if probs[10] != 0 {
		t.Errorf("quiet hour probability = %v", probs[10])
	}
	// With a -5 offset the peak moves to local 14-17.
	probsLocal := HourlyProbability(s, events, -5)
	if math.Abs(probsLocal[14]-0.5) > 1e-9 {
		t.Errorf("local hour 14 probability = %v", probsLocal[14])
	}
	if probsLocal[19] != 0 {
		t.Errorf("local hour 19 should be quiet, got %v", probsLocal[19])
	}
}

func TestCongestedPair(t *testing.T) {
	det := NewDetector()
	// 2 event days of 10 -> 20% > 10% -> congested.
	s := flatDaySeries(10, 400, 100, map[int]bool{0: true, 5: true})
	if !CongestedPairIn(NewPartition(s), det, 0.1) {
		t.Error("20% event days not flagged")
	}
	// 1 event day of 20 -> 5% -> not congested.
	s2 := flatDaySeries(20, 400, 100, map[int]bool{3: true})
	if CongestedPairIn(NewPartition(s2), det, 0.1) {
		t.Error("5% event days flagged")
	}
	if CongestedPairIn(NewPartition(Series{}), det, 0.1) {
		t.Error("empty series flagged")
	}
}

func TestZeroThroughputDaySafe(t *testing.T) {
	var s Series
	for h := 0; h < 24; h++ {
		s.Samples = append(s.Samples, Sample{Unix: t0.Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: 0})
	}
	days := NewPartition(s).Days(0)
	if len(days) != 1 || days[0].V != 0 {
		t.Errorf("all-zero day mishandled: %+v", days)
	}
	det := NewDetector()
	if events := det.Events(s); len(events) != 0 {
		t.Errorf("all-zero day produced events")
	}
}
