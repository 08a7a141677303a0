package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// tierDeltasOf is one metric's deltas over one cursor.
func tierDeltasOf(c Cursor, region string, metric Metric) []TierDelta {
	return TierDeltasEach([]Cursor{c}, region, metric)[metric]
}

// tierKey is one (server, hour) of the reference tier comparison.
type tierKey struct {
	server int
	hour   int64
}

// referenceTierDeltas is the map-and-sort kernel the dense one replaced:
// one map per tier keyed by (server, hour), the last value delivered kept,
// the pairs sorted by hour and then server at the end.
func referenceTierDeltas(c Cursor, region string, metric Metric) []TierDelta {
	prem, std := make(map[tierKey]float64), make(map[tierKey]float64)
	for batch := c.Next(); batch != nil; batch = c.Next() {
		for _, m := range batch {
			if m.Region != region || (m.Dir == netsim.Upload) != (metric == MetricUpload) {
				continue
			}
			v := m.Mbps
			if metric == MetricLatency {
				v = m.RTTms
			}
			k := tierKey{m.ServerID, m.Time.UnixNano() / int64(time.Hour)}
			if m.Tier == bgp.Premium {
				prem[k] = v
			} else {
				std[k] = v
			}
		}
	}
	var keys []tierKey
	for k := range prem {
		if sv, ok := std[k]; ok && sv != 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].hour != keys[j].hour {
			return keys[i].hour < keys[j].hour
		}
		return keys[i].server < keys[j].server
	})
	var out []TierDelta
	for _, k := range keys {
		out = append(out, TierDelta{ServerID: k.server, Delta: (prem[k] - std[k]) / std[k]})
	}
	return out
}

// tierRecords is a differential-shaped stream of n records over three
// regions, hour-major, with every case the tier kernel must get right: a
// (tier, server, hour) delivered more than once, standard values of 0,
// server IDs outside the dense tables' [0, 2^20), and instants before the
// epoch, on and off the hour, where an hour key truncates towards zero.
func tierRecords(seed int64, n int, shuffled bool) []Measurement {
	rng := rand.New(rand.NewSource(seed))
	bases := []time.Time{
		time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1969, 12, 31, 20, 0, 0, 0, time.UTC),
	}
	servers := []int{0, 1, 7, 40, 41, 999, denseServerMax - 1, denseServerMax, 1 << 30, -3}
	regions := []string{"us-west1", "us-east1", "europe-west1"}
	ms := make([]Measurement, n)
	for i := range ms {
		step := i / 8
		at := bases[(i/64)%2].Add(time.Duration(step/4) * time.Hour)
		if i%5 == 0 {
			at = at.Add(-time.Duration(rng.Intn(90)) * time.Minute)
		}
		m := Measurement{
			ServerID: servers[rng.Intn(len(servers))],
			Region:   regions[rng.Intn(len(regions))],
			Tier:     bgp.Tier(rng.Intn(2)),
			Dir:      netsim.Direction(rng.Intn(2)),
			Time:     at,
			Mbps:     float64(rng.Intn(400)),
			RTTms:    float64(rng.Intn(60)),
		}
		if rng.Intn(7) == 0 {
			m.Mbps, m.RTTms = 0, 0
		}
		ms[i] = m
	}
	if shuffled {
		rng.Shuffle(len(ms), func(i, j int) { ms[i], ms[j] = ms[j], ms[i] })
	}
	return ms
}

// TestTierDeltasMatchReference holds the dense tier-delta kernel to the
// map-and-sort reference for every metric and region — over a slice
// cursor, and over a record log split into 1, 2 and 4 ranges, asked for one
// metric at a time and for all three at once.
func TestTierDeltasMatchReference(t *testing.T) {
	metrics := []Metric{MetricDownload, MetricUpload, MetricLatency}
	for _, shuffled := range []bool{false, true} {
		ms := tierRecords(11, 3*logBlockSize+517, shuffled)
		l := newLog(t, ms)
		for _, region := range []string{"us-west1", "europe-west1", "nowhere"} {
			var want [3][]TierDelta
			for _, m := range metrics {
				want[m] = referenceTierDeltas(NewSliceCursor(ms), region, m)
				if (region == "nowhere") != (len(want[m]) == 0) {
					t.Fatalf("%s %v: the reference found %d deltas", region, m, len(want[m]))
				}
				if got := tierDeltasOf(NewSliceCursor(ms), region, m); !reflect.DeepEqual(got, want[m]) {
					t.Fatalf("shuffled=%v %s %v: slice cursor: %d deltas, want %d, or they differ", shuffled, region, m, len(got), len(want[m]))
				}
			}
			for _, n := range []int{1, 2, 4} {
				label := fmt.Sprintf("shuffled=%v %s n=%d", shuffled, region, n)
				if got := TierDeltasEach(l.Cursors(n), region, metrics...); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: the three metrics at once differ from the reference", label)
				}
				for _, m := range metrics {
					got := TierDeltasEach(l.Cursors(n), region, m)
					for other := range got {
						if Metric(other) != m && got[other] != nil {
							t.Fatalf("%s: asked for %v, got %v deltas", label, m, Metric(other))
						}
					}
					if !reflect.DeepEqual(got[m], want[m]) {
						t.Fatalf("%s %v: %d deltas, want %d, or they differ", label, m, len(got[m]), len(want[m]))
					}
				}
			}
		}
	}
}

// TestTierDeltasLastValueAcrossRanges: a (tier, server, hour) delivered in
// two ranges keeps the later range's value, one tier at a time — the other
// tier's value from the earlier range still pairs with it.
func TestTierDeltasLastValueAcrossRanges(t *testing.T) {
	ms := make([]Measurement, 2*logBlockSize)
	for i := range ms {
		ms[i] = mkMeasure(100+i%50, i/200, bgp.Tier(i%2), netsim.Download, 100, 10, 0)
	}
	// Server 5's hour 0 is measured over both tiers in the first block, and
	// the second block re-delivers its premium download, and only that.
	ms[0] = mkMeasure(5, 0, bgp.Standard, netsim.Download, 150, 10, 0)
	ms[1] = mkMeasure(5, 0, bgp.Premium, netsim.Download, 200, 10, 0)
	ms[logBlockSize] = mkMeasure(5, 0, bgp.Premium, netsim.Download, 300, 10, 0)
	l := newLog(t, ms)
	want := referenceTierDeltas(NewSliceCursor(ms), "us-east1", MetricDownload)
	i := slices.IndexFunc(want, func(d TierDelta) bool { return d.ServerID == 5 })
	if i < 0 || want[i].Delta != 1 {
		t.Fatalf("the reference does not pair the later premium 300 with the earlier standard 150: %+v", want)
	}
	for _, n := range []int{1, 2} {
		if got := TierDeltasEach(l.Cursors(n), "us-east1", MetricDownload)[MetricDownload]; !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: deltas differ from the reference", n)
		}
	}
}
