package clasp

// Golden test for the parallel analysis engine: CongestionReport and
// WriteReport must be bit-identical between the old serial algorithm
// (reimplemented below, verbatim from the pre-engine code) and the
// engine at parallelism 1, 4 and 16.

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// drainRecords flattens a campaign's cursor into one slice: the serial
// reference groups raw records in one batch, as it always did, and the
// benchmarks that time a kernel (not the log decode) loop over it.
func drainRecords(res *CampaignResult) []analysis.Measurement {
	out := make([]analysis.Measurement, 0, res.NumRecords())
	c := res.Cursor()
	for b := c.Next(); b != nil; b = c.Next() {
		out = append(out, b...)
	}
	return out
}

// serialCongestionReport is the pre-engine implementation of
// Platform.CongestionReport: one goroutine, per-series re-splits, float
// fractions from the package-level helpers. The engine must reproduce it
// exactly.
func serialCongestionReport(p *Platform, res *CampaignResult) *CongestionReport {
	det := congestion.NewDetector()
	withServer := analysis.GroupSeriesWithServerCursor(analysis.NewSliceCursor(drainRecords(res)), netsim.Download, bgp.Premium)
	rep := &CongestionReport{Region: res.Region}
	var series []congestion.Series
	for _, sw := range withServer {
		series = append(series, sw.Series)
		days := congestion.SplitDays(sw.Series, 0)
		events := det.Events(sw.Series)
		congDays := make(map[int]bool)
		var hourCount [24]int
		for _, e := range events {
			congDays[int(e.Time.Unix()/86400)] = true
			srv := p.Engine().Topo.Server(sw.ServerID)
			if srv != nil {
				if city, ok := p.Engine().Topo.CityOf(srv.City); ok {
					hourCount[city.LocalHour(e.Time.Hour())]++
				}
			}
		}
		peak := -1
		best := 0
		for h, n := range hourCount {
			if n > best {
				best, peak = n, h
			}
		}
		rep.Pairs = append(rep.Pairs, PairSummary{
			PairID:        sw.Series.PairID,
			ServerID:      sw.ServerID,
			Days:          len(days),
			CongestedDays: len(congDays),
			Events:        len(events),
			PeakHourLocal: peak,
		})
	}
	rep.HourFraction = congestion.FractionCongestedHours(series, congestion.DefaultThreshold, 0)
	rep.DayFraction = congestion.FractionCongestedDays(series, congestion.DefaultThreshold, 0)
	sortPairs(rep.Pairs)
	return rep
}

func TestCongestionReportGolden(t *testing.T) {
	p, err := New(Options{Seed: 5, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.RunTopologyCampaign("us-west1", 10)
	if err != nil {
		t.Fatal(err)
	}
	want := serialCongestionReport(p, res)
	var wantText bytes.Buffer
	WriteReport(&wantText, want)

	for _, par := range []int{1, 4, 16} {
		p.Engine().Opts.Parallelism = par
		got, err := p.CongestionReport(res)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		// Bit-identical structs: float fractions compared with ==, not a
		// tolerance — the engine's integer-tally merge must reproduce the
		// serial division exactly.
		if got.HourFraction != want.HourFraction || got.DayFraction != want.DayFraction {
			t.Errorf("parallelism %d: fractions (%v, %v) != serial (%v, %v)",
				par, got.HourFraction, got.DayFraction, want.HourFraction, want.DayFraction)
		}
		if !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Errorf("parallelism %d: pair summaries diverged from serial reference", par)
		}
		var gotText bytes.Buffer
		WriteReport(&gotText, got)
		if !bytes.Equal(gotText.Bytes(), wantText.Bytes()) {
			t.Errorf("parallelism %d: rendered report differs from serial reference", par)
		}
	}
}
