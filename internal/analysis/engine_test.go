package analysis

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// groupSeries drops the server attribution from the grouping kernel's
// output, for the tests and benchmarks that read only the series.
func groupSeries(c Cursor, dir netsim.Direction, tier bgp.Tier) []congestion.Series {
	withServer := GroupSeriesWithServerCursor(c, dir, tier)
	out := make([]congestion.Series, len(withServer))
	for i := range withServer {
		out[i] = withServer[i].Series
	}
	return out
}

// pairKey identifies a VM-server measurement pair in naiveGroup.
type pairKey struct {
	ServerID int
	Region   string
	Tier     bgp.Tier
	Dir      netsim.Direction
}

// naiveGroup is the pre-kernel map-of-slices implementation, kept here as
// the reference the count-then-fill kernel must reproduce exactly. Each
// sample is sorted together with its latency.
func naiveGroup(ms []Measurement, dir netsim.Direction, tier bgp.Tier) []SeriesWithServer {
	type sampleLat struct {
		s   congestion.Sample
		lat float64
	}
	byPair := make(map[pairKey][]sampleLat)
	for _, m := range ms {
		if m.Dir != dir || m.Tier != tier {
			continue
		}
		k := pairKey{ServerID: m.ServerID, Region: m.Region, Tier: m.Tier, Dir: m.Dir}
		byPair[k] = append(byPair[k], sampleLat{congestion.Sample{Unix: m.Time.UnixNano(), Mbps: m.Mbps}, m.RTTms})
	}
	keys := make([]pairKey, 0, len(byPair))
	for k := range byPair {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Region != keys[j].Region {
			return keys[i].Region < keys[j].Region
		}
		return keys[i].ServerID < keys[j].ServerID
	})
	out := make([]SeriesWithServer, 0, len(keys))
	for _, k := range keys {
		pairs := byPair[k]
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].s.Unix < pairs[j].s.Unix })
		samples, lats := make([]congestion.Sample, len(pairs)), make([]float64, len(pairs))
		for i, p := range pairs {
			samples[i], lats[i] = p.s, p.lat
		}
		out = append(out, SeriesWithServer{
			ServerID: k.ServerID,
			Region:   k.Region,
			Series: congestion.Series{
				PairID:  fmt.Sprintf("%s/%d/%s/%s", k.Region, k.ServerID, k.Tier, k.Dir),
				Samples: samples,
			},
			LatMs: lats,
		})
	}
	return out
}

// randomMeasurements mixes regions, tiers, directions and (optionally)
// shuffled timestamps, so the kernel's sort/skip-sort paths both run.
func randomMeasurements(seed int64, n int, shuffleTime bool) []Measurement {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-west1", "us-east1", "europe-west1"}
	tiers := []bgp.Tier{bgp.Premium, bgp.Standard}
	dirs := []netsim.Direction{netsim.Download, netsim.Upload}
	out := make([]Measurement, 0, n)
	for i := 0; i < n; i++ {
		at := start.Add(time.Duration(i) * time.Minute)
		if shuffleTime {
			at = start.Add(time.Duration(rng.Intn(n)) * time.Minute)
		}
		out = append(out, Measurement{
			ServerID: 100 + rng.Intn(12),
			Region:   regions[rng.Intn(len(regions))],
			Tier:     tiers[rng.Intn(len(tiers))],
			Dir:      dirs[rng.Intn(len(dirs))],
			Time:     at,
			Mbps:     50 + 400*rng.Float64(),
			RTTms:    5 + 50*rng.Float64(),
			Loss:     rng.Float64() * 0.01,
		})
	}
	return out
}

// checkGrouped holds one feeder's output to the naiveGroup reference.
func checkGrouped(t *testing.T, label string, got, want []SeriesWithServer) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d series, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].ServerID != want[i].ServerID || got[i].Region != want[i].Region ||
			got[i].Series.PairID != want[i].Series.PairID {
			t.Fatalf("%s series %d: header %+v != %+v", label, i, got[i], want[i])
		}
		if !reflect.DeepEqual(got[i].Series.Samples, want[i].Series.Samples) {
			t.Fatalf("%s series %d (%s): samples differ", label, i, got[i].Series.PairID)
		}
		if !reflect.DeepEqual(got[i].LatMs, want[i].LatMs) {
			t.Fatalf("%s series %d (%s): latencies differ", label, i, got[i].Series.PairID)
		}
	}
}

// TestGroupSeriesWithServerMatchesNaive feeds the kernel from a slice cursor
// and from a log cursor over sealed blocks and a tail (the two share the
// column loop, so neither is the other's oracle) and holds both to the
// map-of-slices reference, per (direction, tier), on the sorted (skip-sort)
// and unsorted branches.
func TestGroupSeriesWithServerMatchesNaive(t *testing.T) {
	for _, tc := range []struct {
		name    string
		shuffle bool
	}{{"time-sorted", false}, {"time-shuffled", true}} {
		t.Run(tc.name, func(t *testing.T) {
			ms := randomMeasurements(7, 2*logBlockSize+900, tc.shuffle)
			l := newLog(t, ms)
			for _, dir := range []netsim.Direction{netsim.Download, netsim.Upload} {
				for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
					label := dir.String() + "/" + tier.String()
					want := naiveGroup(ms, dir, tier)
					checkGrouped(t, "slice cursor "+label, GroupSeriesWithServerCursor(NewSliceCursor(ms), dir, tier), want)
					checkGrouped(t, "log cursor "+label, GroupSeriesWithServerCursor(l.Cursor(), dir, tier), want)
				}
			}
		})
	}
}

func TestGroupSeriesEmpty(t *testing.T) {
	if got := GroupSeriesWithServerCursor(NewSliceCursor(nil), netsim.Download, bgp.Premium); len(got) != 0 {
		t.Errorf("nil input: %d series", len(got))
	}
	// Records present but none matching the filter.
	ms := randomMeasurements(3, 50, false)
	for i := range ms {
		ms[i].Tier = bgp.Standard
	}
	if got := groupSeries(NewSliceCursor(ms), netsim.Download, bgp.Premium); len(got) != 0 {
		t.Errorf("no matches: %d series", len(got))
	}
}

// naivePerfPoints is the map-of-slices reference of the Fig. 4 kernel: every
// download (of one tier when oneTier is set) appended to its (region,
// server, year, month) group, each group sorted whole and read with
// percentileRef.
func naivePerfPoints(ms []Measurement, tier bgp.Tier, oneTier bool) []PerfPoint {
	type key struct {
		region       string
		server, year int
		month        time.Month
	}
	type group struct{ down, lat []float64 }
	groups := make(map[key]*group)
	for _, m := range ms {
		if m.Dir != netsim.Download || oneTier && m.Tier != tier {
			continue
		}
		year, month, _ := m.Time.UTC().Date()
		k := key{m.Region, m.ServerID, year, month}
		if groups[k] == nil {
			groups[k] = new(group)
		}
		groups[k].down = append(groups[k].down, m.Mbps)
		groups[k].lat = append(groups[k].lat, m.RTTms)
	}
	keys := make([]key, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.region != b.region {
			return a.region < b.region
		}
		if a.server != b.server {
			return a.server < b.server
		}
		if a.year != b.year {
			return a.year < b.year
		}
		return a.month < b.month
	})
	var out []PerfPoint
	for _, k := range keys {
		g := groups[k]
		sort.Float64s(g.down)
		sort.Float64s(g.lat)
		out = append(out, PerfPoint{ServerID: k.server, Month: k.month,
			P95Down: percentileRef(g.down, 95), P5LatMs: percentileRef(g.lat, 5), N: len(g.down)})
	}
	return out
}

// TestPerfPointsMatchesPercentile holds the Fig. 4 kernel to
// naivePerfPoints over a slice cursor and over a log cursor, on a stream
// that crosses month and year boundaries out of order: PerfPointsCursor
// (both tiers) and PerfPointsOfSeries over each tier's grouped view, the
// path Fig. 4 takes, whose points PerfPointCount counts.
func TestPerfPointsMatchesPercentile(t *testing.T) {
	ms := randomMeasurements(13, 2*logBlockSize+300, true)
	for i := range ms {
		// Minutes become half-days: the stream spans years, so the month
		// cache is entered, left and re-entered.
		ms[i].Time = ms[i].Time.Add(719 * ms[i].Time.Sub(ms[0].Time.Truncate(24*time.Hour)))
	}
	l := newLog(t, ms)
	cursors := map[string]func() Cursor{
		"slice": func() Cursor { return NewSliceCursor(ms) },
		"log":   l.Cursor,
	}
	for name, open := range cursors {
		want := naivePerfPoints(ms, 0, false)
		if len(want) < 100 {
			t.Fatalf("only %d reference points", len(want))
		}
		if got := PerfPointsCursor(open()); !reflect.DeepEqual(got, want) {
			t.Errorf("%s cursor: PerfPointsCursor differs from the naive reference", name)
		}
		for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
			view := GroupSeriesWithServerCursor(open(), netsim.Download, tier)
			want := naivePerfPoints(ms, tier, true)
			if got := PerfPointsOfSeries(view); !reflect.DeepEqual(got, want) {
				t.Errorf("%s cursor: PerfPointsOfSeries(%s view) differs from the naive reference", name, tier)
			}
			if n := PerfPointCount(view); n != len(want) {
				t.Errorf("%s cursor: PerfPointCount(%s view) = %d, want %d", name, tier, n, len(want))
			}
		}
	}
	// Samples on either side of a month's first instant, and on it.
	var edge []congestion.Sample
	for _, at := range []time.Time{
		time.Date(2020, 5, 31, 23, 0, 0, 0, time.UTC), time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 7, 1, 0, 0, 0, -1, time.UTC), time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 1, 1, 0, 0, 0, 0, time.UTC),
	} {
		edge = append(edge, congestion.Sample{Unix: at.UnixNano(), Mbps: 100})
	}
	series := []SeriesWithServer{{Series: congestion.Series{Samples: edge}, LatMs: make([]float64, len(edge))}}
	if n, pts := PerfPointCount(series), PerfPointsOfSeries(series); n != 4 || len(pts) != 4 {
		t.Errorf("month edges: PerfPointCount %d and %d points, want 4", n, len(pts))
	}
}

// percentileRef re-derives the linear-interpolation percentile locally so
// the test does not depend on the stats package internals.
func percentileRef(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(rank)
	frac := rank - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func TestParallelForCoversAllIndices(t *testing.T) {
	for _, par := range []int{0, 1, 2, 4, 16, 100} {
		n := 257
		var hits atomic.Int64
		out := make([]int, n)
		ParallelFor(par, n, func(i int) {
			out[i] = i * i
			hits.Add(1)
		})
		if hits.Load() != int64(n) {
			t.Fatalf("par=%d: fn ran %d times, want %d", par, hits.Load(), n)
		}
		for i := range out {
			if out[i] != i*i {
				t.Fatalf("par=%d: index %d not computed", par, i)
			}
		}
	}
	ParallelFor(4, 0, func(i int) { t.Fatal("fn called for n=0") })
}

func TestParallelForDeterministicOutput(t *testing.T) {
	ms := randomMeasurements(17, 3000, false)
	ws := GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, bgp.Premium)
	run := func(par int) []int {
		out := make([]int, len(ws))
		ParallelFor(par, len(ws), func(i int) {
			det := congestion.NewDetector()
			out[i] = len(det.Events(ws[i].Series))
		})
		return out
	}
	serial := run(1)
	for _, par := range []int{2, 4, 16} {
		if got := run(par); !reflect.DeepEqual(got, serial) {
			t.Fatalf("parallelism %d diverged from serial", par)
		}
	}
}

// TestParallelAnalysisConcurrentWithInserts drives the parallel analysis
// engine while another goroutine streams inserts into the time-series
// store through bound handles, and whole-store reads interleave with both
// — the continuous re-analysis shape (Globalping-style) where reports are
// computed mid-campaign. Run under -race in CI.
func TestParallelAnalysisConcurrentWithInserts(t *testing.T) {
	store := tsdb.NewStore()
	ms := randomMeasurements(23, 2000, false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, m := range ms {
			tags := tsdb.Tags{"server": strconv.Itoa(m.ServerID), "region": m.Region, "tier": m.Tier.String(), "dir": m.Dir.String()}
			store.Bind(tags, "mbps", "rtt_ms").Insert(m.Time, m.Mbps, m.RTTms)
		}
	}()
	// readStore reads the whole store's state and returns how many series
	// it holds.
	readStore := func() int { return len(store.Dump()) }
	det := congestion.NewDetector()
	for round := 0; round < 4; round++ {
		ws := GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, bgp.Premium)
		events := make([]int, len(ws))
		ParallelFor(8, len(ws), func(i int) {
			p := congestion.NewPartition(ws[i].Series)
			events[i] = len(det.EventsIn(p))
		})
		// Interleave reads of the store mid-insert.
		readStore()
	}
	<-done
	if readStore() == 0 {
		t.Fatal("no series reached the store")
	}
}
