package congestion

import (
	"math/rand"
	"testing"
	"time"
)

// benchSeries builds `n` hourly series of `days` days with diurnal dips on
// every third pair, the shape the Fig. 2 sweeps consume.
func benchSeries(n, days int) []Series {
	rng := rand.New(rand.NewSource(11))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	out := make([]Series, 0, n)
	for i := 0; i < n; i++ {
		s := Series{PairID: "bench-pair"}
		for h := 0; h < days*24; h++ {
			v := 300 + 80*rng.Float64()
			if i%3 == 0 && h%24 >= 19 && h%24 <= 22 {
				v *= 0.25 + 0.2*rng.Float64()
			}
			s.Samples = append(s.Samples, Sample{Unix: start.Add(time.Duration(h) * time.Hour).UnixNano(), Mbps: v})
		}
		out = append(out, s)
	}
	return out
}

func benchGrid() []float64 {
	hs := make([]float64, 0, 21)
	for i := 0; i <= 20; i++ {
		hs = append(hs, float64(i)/20)
	}
	return hs
}

// BenchmarkAnalysisSweepDays is the Fig. 2a threshold sweep: 21 thresholds
// over 48 series of 45 days.
func BenchmarkAnalysisSweepDays(b *testing.B) {
	series := benchSeries(48, 45)
	hs := benchGrid()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep := SweepDaysPartitioned(Partitions(series), hs, 0)
		if len(sweep) != len(hs) {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkAnalysisSweepHours is the Fig. 2b threshold sweep over the same
// series set.
func BenchmarkAnalysisSweepHours(b *testing.B) {
	series := benchSeries(48, 45)
	hs := benchGrid()
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweep := SweepHoursPartitioned(Partitions(series), hs, 0)
		if len(sweep) != len(hs) {
			b.Fatal("bad sweep")
		}
	}
}

// BenchmarkAnalysisSplitDays is one series' day decomposition, the unit the
// memoized sweep amortises, and one day tally over it.
func BenchmarkAnalysisSplitDays(b *testing.B) {
	series := benchSeries(1, 45)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, days := NewPartition(series[0]).DayTally(DefaultThreshold, 0); days != 45 {
			b.Fatalf("days = %d", days)
		}
	}
}
