package analysis

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// boundaryRecords is six full blocks and a short tail that carries on from
// the last block. Every block starts a day earlier than the block before it
// ends, so each pair is in time order inside a block and out of order at
// every block boundary: at six ranges, one block each, only the merge's
// cross-range rule can tell that a pair needs sorting. Server 7's downloads
// all share one instant, so they are never sorted and keep the order they
// were delivered in.
func boundaryRecords() []Measurement {
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-east1", "us-west1"}
	ms := make([]Measurement, 6*logBlockSize+100)
	for i := range ms {
		k := min(i/logBlockSize, 5) // the tail is block 5 going on
		j := i - k*logBlockSize
		ms[i] = Measurement{
			ServerID: 1 + j%6,
			Region:   regions[(j/24)%2],
			Tier:     bgp.Tier((j / 6) % 2),
			Dir:      netsim.Direction((j / 12) % 2),
			Time:     base.Add(time.Duration(6-k)*24*time.Hour + time.Duration(j/48)*time.Minute),
			Mbps:     float64(i),
			RTTms:    float64(i % 97),
		}
		if j%50 == 0 {
			ms[i].ServerID, ms[i].Region, ms[i].Tier, ms[i].Dir, ms[i].Time = 7, "us-east1", bgp.Premium, netsim.Download, base
		}
	}
	return ms
}

// rangeScans is everything the range kernels compute over one split of a
// log: both tiers by both directions grouped, perf points over every tier
// and over each tier's download view, and each region's tier deltas.
type rangeScans struct {
	groups [4][]SeriesWithServer
	perf   []PerfPoint
	tiers  [2][]PerfPoint
	deltas [2][3][]TierDelta
}

func scanRanges(cs []Cursor) rangeScans {
	reset := func() {
		for _, c := range cs {
			c.Reset()
		}
	}
	var r rangeScans
	for i, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
		for j, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
			reset()
			r.groups[2*i+j] = GroupSeriesWithServerRanges(cs, dir, tier)
		}
	}
	reset()
	r.perf = PerfPointsOfSeries(GroupSeriesWithServerRanges(cs, netsim.Download, anyTier))
	for i := range r.tiers {
		r.tiers[i] = PerfPointsOfSeries(r.groups[i])
	}
	for i, region := range []string{"us-east1", "us-west1"} {
		reset()
		r.deltas[i] = TierDeltasEach(cs, region, MetricDownload, MetricUpload, MetricLatency)
	}
	return r
}

// TestRangeScanMatchesOneCursor pins the range-scan contract: however a log
// is split by Cursors(n), the ranges read one after another replay the
// one-cursor sequence, and the grouping, perf-point and tier-delta kernels
// return exactly what they return over that one cursor — on a resident log,
// a spilled one, one that is all tail, an empty one, one whose pairs go
// out of order exactly at the range boundaries, and a differential one.
func TestRangeScanMatchesOneCursor(t *testing.T) {
	spilled := newLog(t, campaignRecords(5*logBlockSize+333))
	if err := spilled.Spill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	logs := map[string]*RecordLog{
		"resident":  newLog(t, campaignRecords(5*logBlockSize+333)),
		"spilled":   spilled,
		"tail-only": newLog(t, campaignRecords(300)),
		"empty":     NewRecordLog(),
		"boundary":  newLog(t, boundaryRecords()),
		// Both tiers of a server meet in an hour (in campaignRecords a
		// server is measured over one tier only).
		"differential": newLog(t, tierRecords(13, 4*logBlockSize+99, false)),
	}
	for name, l := range logs {
		records := drain(l.Cursor())
		want := scanRanges([]Cursor{l.Cursor()})
		if name != "empty" && (len(want.groups[0]) == 0 || len(want.perf) == 0) {
			t.Fatalf("%s: the one-cursor scan found nothing to compare", name)
		}
		if (name == "boundary" || name == "differential") && len(want.deltas[0][MetricDownload]) == 0 {
			t.Fatalf("%s: the one-cursor scan found no tier deltas to compare", name)
		}
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, l.SealedBlocks() + 3}
		for _, n := range ns {
			label := fmt.Sprintf("%s n=%d", name, n)
			cs := l.Cursors(n)
			if want := max(1, min(n, l.SealedBlocks())); len(cs) != want {
				t.Fatalf("%s: %d cursors, want %d", label, len(cs), want)
			}
			var got []Measurement
			for _, c := range cs {
				got = append(got, drain(c)...)
			}
			if !slices.EqualFunc(got, records, measurementsEqual) {
				t.Fatalf("%s: the ranges in order do not replay the log", label)
			}
			if got := scanRanges(cs); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: range scans differ from the one-cursor scan", label)
			}
		}
	}
}
