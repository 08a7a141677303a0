package clasp

// Golden test for the parallel analysis engine: CongestionReport and
// WriteReport must be bit-identical between the old serial algorithm
// (reimplemented below, verbatim from the pre-engine code) and the
// engine at parallelism 1, 4 and 16.

import (
	"bytes"
	"reflect"
	"slices"
	"sort"
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

// splitDays is the pre-engine day split of package congestion, from before
// Partition existed: a map-based re-split per call, sharing nothing with
// the partition kernels the engine folds. Days with fewer than the default
// four samples are skipped.
func splitDays(s congestion.Series) []congestion.Day {
	byDay := make(map[int][]float64)
	for _, smp := range s.Samples {
		d := int(smp.T().Unix() / 86400)
		byDay[d] = append(byDay[d], smp.Mbps)
	}
	days := make([]int, 0, len(byDay))
	for d := range byDay {
		days = append(days, d)
	}
	sort.Ints(days)
	var out []congestion.Day
	for _, d := range days {
		xs := byDay[d]
		if len(xs) < 4 {
			continue
		}
		min, max := slices.Min(xs), slices.Max(xs)
		v := 0.0
		if max > 0 {
			v = (max - min) / max
		}
		out = append(out, congestion.Day{PairID: s.PairID, Day: d, Tmax: max, Tmin: min, V: v, Samples: len(xs)})
	}
	return out
}

// serialCongestionReport is the pre-engine implementation of
// Platform.CongestionReport: one goroutine, per-series re-splits, and the
// campaign-wide fractions as pair-days with V > H over qualifying pair-days
// and events over samples on qualifying days. The engine must reproduce it
// exactly.
func serialCongestionReport(p *Platform, res *CampaignResult) *CongestionReport {
	det := congestion.NewDetector()
	withServer := analysis.GroupSeriesWithServerCursor(analysis.NewSliceCursor(drainRecords(res)), netsim.Download, bgp.Premium)
	rep := &CongestionReport{Region: res.Region}
	var dTot, dCong, hTot, hCong int
	for _, sw := range withServer {
		days := splitDays(sw.Series)
		events := det.Events(sw.Series)
		for _, d := range days {
			dTot++
			hTot += d.Samples
			if d.V > det.H {
				dCong++
			}
		}
		hCong += len(events)
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
	if hTot > 0 {
		rep.HourFraction = float64(hCong) / float64(hTot)
	}
	if dTot > 0 {
		rep.DayFraction = float64(dCong) / float64(dTot)
	}
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
