package core

import (
	"reflect"
	"testing"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// TestPreparedMatchesCursor is the equivalence property the pipelined
// scheduler rests on: SeriesAndPartitions answers the same whether the
// campaign's emit phase fed the grouping kernel (prepared views) or the
// kernel runs over the finished record log. A differential campaign has
// records in all four (direction, tier) streams: downloads are served from
// the prep, uploads — which the prep does not group — take the log path on
// both sides, so the public accessor is checked for every request.
// Byte-identical `report all` output at any memory budget follows from this
// plus deterministic merge.
func TestPreparedMatchesCursor(t *testing.T) {
	c, err := New(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := c.RunDifferentialCampaign("us-east1", 2, DefaultMinSamples(0.1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Prep == nil {
		t.Fatal("unbudgeted campaign has no prepared views")
	}
	logOnly := *res
	logOnly.Prep = nil

	const minSamples = 4
	for _, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
		for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
			_, _, prepared := res.Prep.Views(dir, tier)
			if prepared != (dir == netsim.Download) {
				t.Fatalf("%v/%v: prep answered = %v", dir, tier, prepared)
			}
			series, parts := res.SeriesAndPartitions(dir, tier)
			wantSeries, wantParts := logOnly.SeriesAndPartitions(dir, tier)
			if len(wantSeries) == 0 {
				t.Fatalf("%v/%v: differential campaign has no series", dir, tier)
			}
			if !reflect.DeepEqual(series, wantSeries) {
				t.Fatalf("%v/%v: series differ from the log grouping (%d vs %d series)", dir, tier, len(series), len(wantSeries))
			}
			if len(parts) != len(wantParts) {
				t.Fatalf("%v/%v: %d partitions, want %d", dir, tier, len(parts), len(wantParts))
			}
			for i, want := range wantParts {
				id := series[i].Series.PairID
				if !reflect.DeepEqual(parts[i].Days(minSamples), want.Days(minSamples)) {
					t.Fatalf("partition %d (%s): day split differs", i, id)
				}
				gotEv, gotHr := parts[i].HourTally(0.2, minSamples)
				wantEv, wantHr := want.HourTally(0.2, minSamples)
				if gotEv != wantEv || gotHr != wantHr {
					t.Fatalf("partition %d (%s): hour tally (%d,%d) != (%d,%d)", i, id, gotEv, gotHr, wantEv, wantHr)
				}
			}
		}
	}
}
