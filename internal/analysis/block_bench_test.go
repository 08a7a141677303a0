package analysis

import (
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// benchLog compresses a benchmark record stream into a sealed record log.
func benchLog(ms []Measurement) *RecordLog {
	l := NewRecordLog()
	for _, m := range ms {
		l.Append(m)
	}
	return l
}

// BenchmarkBlockRecordLogAppend is the streaming ingest path: one op is one
// record appended (block sealing amortised in). The bytes/record metric is
// the compressed footprint of the sealed blocks — the ≥4x win over the
// 88-byte in-memory Measurement that BENCH_tsdb.json records.
func BenchmarkBlockRecordLogAppend(b *testing.B) {
	ms := campaignRecords(logBlockSize)
	b.ResetTimer()
	b.ReportAllocs()
	l := NewRecordLog()
	for i := 0; i < b.N; i++ {
		l.Append(ms[i%len(ms)])
	}
	if sealed := l.Len() - len(l.tail); sealed > 0 {
		b.ReportMetric(float64(l.CompressedBytes())/float64(sealed), "bytes/record")
	}
}

// BenchmarkBlockStreamGroupSeries is the grouping kernel consuming a
// compressed log block-at-a-time through a cursor — the streaming
// counterpart of BenchmarkAnalysisGroupSeries (same 128-pair, 45-day
// campaign), so the two JSON records give the decode overhead directly.
func BenchmarkBlockStreamGroupSeries(b *testing.B) {
	ms := benchRecords(128, 45)
	l := benchLog(ms)
	// One warm pass pays first-use lazy costs outside the timer so
	// allocs/op is the same at any -benchtime.
	if series := groupSeries(l.Cursor(), netsim.Download, bgp.Premium); len(series) != 128 {
		b.Fatalf("series = %d", len(series))
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		series := groupSeries(l.Cursor(), netsim.Download, bgp.Premium)
		if len(series) != 128 {
			b.Fatalf("series = %d", len(series))
		}
	}
}

// BenchmarkBlockStreamPerfPoints is Fig. 4 over a view it cannot keep: one
// cursor of a compressed log grouped per call, then the series kernel.
func BenchmarkBlockStreamPerfPoints(b *testing.B) {
	l := benchLog(benchRecords(128, 45))
	fig4 := func() []PerfPoint {
		return PerfPointsOfSeries(GroupSeriesWithServerCursor(l.Cursor(), netsim.Download, bgp.Premium))
	}
	if pts := fig4(); len(pts) == 0 {
		b.Fatal("no perf points")
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if pts := fig4(); len(pts) == 0 {
			b.Fatal("no perf points")
		}
	}
}
