package clasp

// End-to-end analysis benchmarks: campaign records -> CongestionReport.
// They use a dedicated small fixture (one region, 14 days) instead of the
// six-campaign fixture in bench_test.go so `make bench`'s analysis pipeline
// and `make bench-check` stay fast.

import (
	"bytes"
	"sync"
	"testing"
)

type analysisFix struct {
	p1, p4 *Platform // same seed/scale, differing Parallelism
	res    *CampaignResult
}

var (
	anOnce sync.Once
	anFix  *analysisFix
	anErr  error
)

func analysisFixture(b *testing.B) *analysisFix {
	b.Helper()
	anOnce.Do(func() {
		p1, err := New(Options{Seed: 1, Scale: 0.12, Parallelism: 1})
		if err != nil {
			anErr = err
			return
		}
		p4, err := New(Options{Seed: 1, Scale: 0.12, Parallelism: 4})
		if err != nil {
			anErr = err
			return
		}
		res, err := runTopology(p1.Engine(), "us-west1", 14)
		if err != nil {
			anErr = err
			return
		}
		anFix = &analysisFix{p1: p1, p4: p4, res: res}
	})
	if anErr != nil {
		b.Fatal(anErr)
	}
	return anFix
}

// benchCongestionReport times the congestion report over the fixture's
// campaign; with first set, each iteration first drops the views the
// result holds (CampaignResult.Close), so it pays for them again.
func benchCongestionReport(b *testing.B, pick func(*analysisFix) *Platform, first bool) {
	f := analysisFixture(b)
	p := pick(f)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if first {
			if err := f.res.Close(); err != nil {
				b.Fatal(err)
			}
		}
		rep, err := p.CongestionReport(f.res)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var buf bytes.Buffer
			WriteReport(&buf, rep)
			b.ReportMetric(float64(len(rep.Pairs)), "pairs")
		}
	}
}

// BenchmarkAnalysisCongestionReport is the congestion report as every
// render after the first pays for it: the campaign's download view and
// each partition's verdict are built by the first call and held, so the
// loop times the fold, the peak hours and the sort.
func BenchmarkAnalysisCongestionReport(b *testing.B) {
	benchCongestionReport(b, func(f *analysisFix) *Platform { return f.p1 }, false)
}

// BenchmarkAnalysisCongestionReportFirst is the congestion report as the
// first render pays for it: the result's views are dropped before every
// iteration, so each one groups the campaign's download view from its
// log, partitions every series and builds every verdict before the fold.
func BenchmarkAnalysisCongestionReportFirst(b *testing.B) {
	benchCongestionReport(b, func(f *analysisFix) *Platform { return f.p1 }, true)
}

// BenchmarkAnalysisCongestionReportP4 is the same computation with the
// platform's Parallelism option at 4, which reaches only the grouping of
// a view not yet held. Output is bit-identical (pinned by
// TestCongestionReportGolden).
func BenchmarkAnalysisCongestionReportP4(b *testing.B) {
	benchCongestionReport(b, func(f *analysisFix) *Platform { return f.p4 }, false)
}
