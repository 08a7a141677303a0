package analysis

import (
	"math/rand"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// benchRecords synthesises a campaign-shaped record stream: `pairs` servers
// measured hourly in both directions for `days` days, in the hour-major
// order the orchestrator emits. Deterministic (fixed seed) so allocs/op and
// the grouped output are stable across runs.
func benchRecords(pairs, days int) []Measurement {
	rng := rand.New(rand.NewSource(7))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-west1", "us-east1"}
	out := make([]Measurement, 0, pairs*days*24*2)
	for h := 0; h < days*24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		for s := 0; s < pairs; s++ {
			base := 250 + 25*float64(s%7)
			mbps := base + 60*rng.Float64()
			if s%5 == 0 && h%24 >= 19 && h%24 <= 22 {
				mbps *= 0.3 // evening dip on every fifth pair
			}
			out = append(out, Measurement{
				ServerID: 1000 + s, Region: regions[s%len(regions)],
				Tier: bgp.Premium, Dir: netsim.Download,
				Time: at, Mbps: mbps, RTTms: 20 + 10*rng.Float64(), Loss: 0.001,
			})
			out = append(out, Measurement{
				ServerID: 1000 + s, Region: regions[s%len(regions)],
				Tier: bgp.Premium, Dir: netsim.Upload,
				Time: at, Mbps: 80 + 15*rng.Float64(), RTTms: 20 + 10*rng.Float64(), Loss: 0.001,
			})
		}
	}
	return out
}

// BenchmarkAnalysisGroupSeries is the grouping kernel on a 128-pair,
// 45-day campaign (~276k records, half matching the download filter).
func BenchmarkAnalysisGroupSeries(b *testing.B) {
	ms := benchRecords(128, 45)
	// One warm pass pays first-use lazy costs outside the timer so
	// allocs/op is the same at any -benchtime.
	if series := groupSeries(NewSliceCursor(ms), netsim.Download, bgp.Premium); len(series) != 128 {
		b.Fatalf("series = %d", len(series))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series := groupSeries(NewSliceCursor(ms), netsim.Download, bgp.Premium)
		if len(series) != 128 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

// BenchmarkAnalysisGroupSeriesWithServer is the server-attributed variant
// feeding Fig. 6/Fig. 8 and the congestion report.
func BenchmarkAnalysisGroupSeriesWithServer(b *testing.B) {
	ms := benchRecords(128, 45)
	if series := GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, bgp.Premium); len(series) != 128 {
		b.Fatalf("series = %d", len(series))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series := GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, bgp.Premium)
		if len(series) != 128 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

// BenchmarkAnalysisPerfPoints is Fig. 4 over a held view: the series
// kernel's per-(server, month) p95-download / p5-latency points from the
// grouped download series, which are grouped once, outside the timer.
func BenchmarkAnalysisPerfPoints(b *testing.B) {
	series := GroupSeriesWithServerCursor(NewSliceCursor(benchRecords(128, 45)), netsim.Download, bgp.Premium)
	if pts := PerfPointsOfSeries(series); len(pts) == 0 {
		b.Fatal("no perf points")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pts := PerfPointsOfSeries(series)
		if len(pts) == 0 {
			b.Fatal("no perf points")
		}
	}
}

// BenchmarkAnalysisTierDeltas is Fig. 5's tier join over a differential
// log: 64 servers measured every hour for 30 days over both tiers in both
// directions (~184k records in a compressed record log), all three
// metrics in one pass over one range.
func BenchmarkAnalysisTierDeltas(b *testing.B) {
	const servers, days = 64, 30
	l := NewRecordLog()
	rng := rand.New(rand.NewSource(9))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	for h := 0; h < days*24; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		for s := 0; s < servers; s++ {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				for _, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
					l.Append(Measurement{
						ServerID: 2000 + s, Region: "europe-west1", Tier: tier, Dir: dir,
						Time: at.Add(time.Duration(rng.Intn(3000)) * time.Second),
						Mbps: 200 + 100*rng.Float64(), RTTms: 20 + 10*rng.Float64(), Loss: 0.001,
					})
				}
			}
		}
	}
	want := servers * days * 24
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		each := TierDeltasEach(l.Cursors(1), "europe-west1", MetricDownload, MetricUpload, MetricLatency)
		if len(each[MetricDownload]) != want || len(each[MetricUpload]) != want || len(each[MetricLatency]) != want {
			b.Fatalf("deltas = %d/%d/%d, want %d each", len(each[MetricDownload]), len(each[MetricUpload]), len(each[MetricLatency]), want)
		}
	}
}
