// Package analysis turns CLASP's raw measurement records into the paper's
// result artifacts: monthly p95-throughput/p5-latency performance points
// (Fig. 4), relative tier differences and their CDFs (Fig. 5), premium-tier
// loss attribution (§4.1), and business-type breakdowns of congested
// servers (Fig. 8).
package analysis

import (
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/congestion"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// Measurement is one completed speed test record, the unit stored in the
// results bucket and indexed into the time-series store.
type Measurement struct {
	ServerID int
	Region   string
	Tier     bgp.Tier
	Dir      netsim.Direction
	Time     time.Time
	Mbps     float64
	RTTms    float64
	Loss     float64
}

// MeasurementBytes is the in-memory size of one Measurement
// (unsafe.Sizeof, pinned by TestMeasurementBytes): the unit of the record
// log's tail accounting, of the engine's memory-budget estimate and of the
// compression ratio TestStreamingCampaignIdentical (internal/core) asserts.
const MeasurementBytes = 88

// pairIDString renders "region/serverID/tier/dir" without fmt — the only
// string construction in the grouping hot loop, called once per pair.
func pairIDString(region string, serverID int, tier bgp.Tier, dir netsim.Direction) string {
	t, d := tier.String(), dir.String()
	b := make([]byte, 0, len(region)+len(t)+len(d)+23)
	b = append(b, region...)
	b = append(b, '/')
	b = strconv.AppendInt(b, int64(serverID), 10)
	b = append(b, '/')
	b = append(b, t...)
	b = append(b, '/')
	b = append(b, d...)
	return string(b)
}

// SeriesWithServer pairs a congestion series with the server it measures.
type SeriesWithServer struct {
	ServerID int
	Region   string
	Series   congestion.Series
}

// regionTable interns region names, so the grouping kernels key their slots
// by a small index and no string is hashed per record. A campaign stream
// names a handful of regions in long runs: the last answer is tried first
// and a miss is a short linear scan.
type regionTable struct {
	names   []string // index = region index
	last    string
	lastIdx int32
}

func (t *regionTable) intern(name string) int32 {
	if name == t.last && t.names != nil {
		return t.lastIdx
	}
	ri := int32(slices.Index(t.names, name))
	if ri < 0 {
		ri = int32(len(t.names))
		t.names = append(t.names, name)
	}
	t.last, t.lastIdx = name, ri
	return ri
}

// batchRegions maps a batch's region codes into a kernel's own regionTable
// once per batch: a code costs one intern the first time the batch shows
// it and an index after.
type batchRegions struct {
	names []string // the batch's table
	index []int32  // batch code -> table index + 1, 0 while unresolved
}

func (r *batchRegions) reset(b *ColumnBatch) {
	r.names = b.RegionNames
	r.index = append(r.index[:0], make([]int32, len(b.RegionNames))...)
}

func (r *batchRegions) resolve(code int32, t *regionTable) int32 {
	if ri := r.index[code]; ri != 0 {
		return ri - 1
	}
	ri := t.intern(r.names[code])
	r.index[code] = ri + 1
	return ri
}

// denseServerMax bounds the dense serverID→slot tables: IDs in [0, denseMax)
// index a flat slice (no hashing); anything else falls back to a map. Real
// topologies number servers from zero, so the fallback never runs in
// practice.
const denseServerMax = 1 << 20

// grouper is the count-then-fill grouping kernel for one (direction, tier):
// put resolves each sample's pair slot and appends it to a staging buffer
// in delivery order, finish scatters the staged samples into one contiguous
// pre-sized buffer whose subslices become the series. Its one feeder is
// GroupSeriesWithServerCursor's column loop over a finished record stream.
type grouper struct {
	dir  netsim.Direction
	tier bgp.Tier

	regions  regionTable
	tables   [][]int32 // per region: serverID -> slot+1
	overflow map[overflowKey]int32
	slots    []pairSlot

	samples []congestion.Sample // staged, in delivery order
	slotOf  []int32             // slot of each staged sample
}

type pairSlot struct {
	regionIdx   int32
	serverID    int
	count, next int   // sample count; fill cursor into the output buffer
	last        int64 // last staged sample time (Unix ns), for the sorted check
	unsorted    bool
}

// overflowKey identifies a pair whose server ID is outside [0, denseServerMax).
type overflowKey struct {
	regionIdx int32
	serverID  int
}

// put stages one sample for the pair (ri, id), ri an index of g.regions; t
// and ns are the same instant. The pair slot is resolved through a dense
// serverID table per region (no string hashing in the hot loop), and
// sortedness is tracked per slot so already time-ordered pairs (the
// campaign's hour-major layout) skip sorting in finish.
func (g *grouper) put(ri int32, id int, ns int64, t time.Time, mbps float64) {
	if int(ri) == len(g.tables) {
		g.tables = append(g.tables, nil)
	}
	var si int32
	if id >= 0 && id < denseServerMax {
		t := g.tables[ri]
		if id >= len(t) {
			nt := make([]int32, id+64)
			copy(nt, t)
			g.tables[ri] = nt
			t = nt
		}
		si = t[id] - 1
		if si < 0 {
			si = int32(len(g.slots))
			t[id] = si + 1
			g.slots = append(g.slots, pairSlot{regionIdx: ri, serverID: id})
		}
	} else {
		if g.overflow == nil {
			g.overflow = make(map[overflowKey]int32)
		}
		k := overflowKey{ri, id}
		v, ok := g.overflow[k]
		if !ok {
			v = int32(len(g.slots))
			g.overflow[k] = v
			g.slots = append(g.slots, pairSlot{regionIdx: ri, serverID: id})
		}
		si = v
	}
	s := &g.slots[si]
	if s.count > 0 && ns < s.last {
		s.unsorted = true
	}
	s.last = ns
	s.count++
	g.samples = append(g.samples, congestion.Sample{Time: t, Mbps: mbps})
	g.slotOf = append(g.slotOf, si)
}

// finish turns the staged samples into per-pair series. The staging buffers
// are left as they are — the caller recycles or drops them — and the result
// shares no memory with them.
func (g *grouper) finish() []SeriesWithServer {
	slots, regions := g.slots, g.regions.names
	if len(slots) == 0 {
		return nil
	}
	// Deterministic pair order: region, then server ID (unchanged from the
	// map-of-slices implementation).
	order := make([]int32, len(slots))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := &slots[order[a]], &slots[order[b]]
		if ka.regionIdx != kb.regionIdx {
			return regions[ka.regionIdx] < regions[kb.regionIdx]
		}
		return ka.serverID < kb.serverID
	})
	off := 0
	for _, si := range order {
		slots[si].next = off
		off += slots[si].count
	}
	buf := make([]congestion.Sample, len(g.samples))
	for j, si := range g.slotOf {
		s := &slots[si]
		buf[s.next] = g.samples[j]
		s.next++
	}
	out := make([]SeriesWithServer, 0, len(order))
	for _, si := range order {
		s := &slots[si]
		samples := buf[s.next-s.count : s.next : s.next]
		if s.unsorted {
			sort.Slice(samples, func(a, b int) bool { return samples[a].Time.Before(samples[b].Time) })
		}
		out = append(out, SeriesWithServer{
			ServerID: s.serverID,
			Region:   regions[s.regionIdx],
			Series: congestion.Series{
				PairID:  pairIDString(regions[s.regionIdx], s.serverID, g.tier, g.dir),
				Samples: samples,
			},
		})
	}
	return out
}

// groupBuffers is the staging scratch of a cursor-fed grouping call — the
// staged samples and their slot assignments never escape, so they are
// pooled.
type groupBuffers struct {
	samples []congestion.Sample
	slotOf  []int32
}

var groupScratch = sync.Pool{New: func() any { return new(groupBuffers) }}

// GroupSeriesWithServerCursor groups a measurement stream into per-pair
// series with the server attribution the congestion-by-business-type and
// Fig. 6 analyses need: the grouper kernel fed from a cursor's columns,
// staging into pooled scratch. It filters on tier and direction before it
// touches anything else of a record, never asks for latency or loss, and
// builds a time.Time only for the samples it stages (one per run of equal
// timestamps: the campaign's layout is hour-major). The cursor is consumed
// one batch at a time, so the peak footprint is the output plus one input
// block, independent of stream length.
func GroupSeriesWithServerCursor(c Cursor, dir netsim.Direction, tier bgp.Tier) []SeriesWithServer {
	sp := obs.Trace("analysis.group")
	obsGroupCalls.Inc()

	gb := groupScratch.Get().(*groupBuffers)
	g := grouper{dir: dir, tier: tier, samples: gb.samples[:0], slotOf: gb.slotOf[:0]}
	records := 0
	const need = ColTime | ColServer | ColRegion | ColTierDir | ColMbps
	var regions batchRegions
	var at time.Time // the instant atNs, rebuilt when a record's differs
	var atNs int64
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		records += b.N
		regions.reset(b)
		for i, d := range b.Dirs {
			if d != dir || b.Tiers[i] != tier {
				continue
			}
			ns := b.Times[i]
			if ns != atNs || at.IsZero() {
				at, atNs = time.Unix(0, ns).UTC(), ns
			}
			g.put(regions.resolve(b.Regions[i], &g.regions), b.Servers[i], ns, at, b.Mbps[i])
		}
	}
	out := g.finish()
	gb.samples, gb.slotOf = g.samples, g.slotOf
	groupScratch.Put(gb)
	obsGroupRecords.Add(uint64(records))
	obsGroupSeries.Add(uint64(len(out)))
	sp.WithInt("records", records).WithInt("series", len(out)).End()
	return out
}

// --- Fig. 4: monthly performance points ---------------------------------------

// PerfPoint is one scatter point of Fig. 4: a server's 95th-percentile
// download throughput and 5th-percentile latency within one month.
type PerfPoint struct {
	ServerID int
	Region   string
	Month    time.Month
	Year     int
	P95Down  float64
	P5LatMs  float64
	N        int
}

// PerfPointsCursor computes one point per (server, region, month) from the
// download measurements of a stream, mirroring Fig. 4's use of p95/p5 to
// mitigate outliers.
func PerfPointsCursor(c Cursor) []PerfPoint { return perfPoints(c, 0, false) }

// PerfPointsTierCursor is PerfPointsCursor over the downloads of one tier:
// a panel of Fig. 4.
func PerfPointsTierCursor(c Cursor, tier bgp.Tier) []PerfPoint { return perfPoints(c, tier, true) }

// monthSpan caches the calendar month an instant fell in: a campaign stream
// stays inside one month for tens of thousands of records, so the (year,
// month) of a record is two comparisons against the month's bounds, not a
// calendar conversion.
type monthSpan struct {
	lo, hi int64 // Unix ns of the month's first instant and of the next month's; hi == lo == 0: none yet
	year   int
	month  time.Month
}

func (s *monthSpan) at(ns int64) {
	if ns >= s.lo && ns < s.hi {
		return
	}
	s.year, s.month, _ = time.Unix(0, ns).UTC().Date()
	s.lo = time.Date(s.year, s.month, 1, 0, 0, 0, 0, time.UTC).UnixNano()
	s.hi = time.Date(s.year, s.month+1, 1, 0, 0, 0, 0, time.UTC).UnixNano()
}

// perfPoints is the count-then-fill kernel of the series grouping again,
// with interned region names keeping strings out of the slot map. The
// per-group throughput and latency samples land in two contiguous buffers
// and each percentile is selected (stats.PercentileInPlace) rather than
// paying a full sort. The kernel is two-pass — count, then Reset, re-scan
// and fill — so it holds two contiguous float columns plus one input
// block, never the records; the count pass asks for no float column and the
// fill pass for nothing but the filter byte, throughput and latency.
func perfPoints(c Cursor, tier bgp.Tier, oneTier bool) []PerfPoint {
	type slotKey struct {
		server, ym int // ym = year*12 + month: (year, month) order preserved
		ri         int32
	}
	type slot struct {
		server      int
		ri          int32
		year        int
		month       time.Month
		count, next int
	}
	keep := func(b *ColumnBatch, i int) bool {
		return b.Dirs[i] == netsim.Download && (!oneTier || b.Tiers[i] == tier)
	}
	var regions regionTable
	var codes batchRegions
	var in monthSpan
	idx := make(map[slotKey]int32)
	var slots []slot
	var slotOf []int32
	const countCols = ColTime | ColServer | ColRegion | ColTierDir
	for b := c.NextColumns(countCols); b != nil; b = c.NextColumns(countCols) {
		codes.reset(b)
		for i := 0; i < b.N; i++ {
			if !keep(b, i) {
				continue
			}
			ri := codes.resolve(b.Regions[i], &regions)
			in.at(b.Times[i])
			k := slotKey{server: b.Servers[i], ym: in.year*12 + int(in.month), ri: ri}
			si, ok := idx[k]
			if !ok {
				si = int32(len(slots))
				idx[k] = si
				slots = append(slots, slot{server: k.server, ri: ri, year: in.year, month: in.month})
			}
			slots[si].count++
			slotOf = append(slotOf, si)
		}
	}
	if len(slots) == 0 {
		return nil
	}
	order := make([]int32, len(slots))
	for i := range order {
		order[i] = int32(i)
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := &slots[order[i]], &slots[order[j]]
		if a.ri != b.ri {
			return regions.names[a.ri] < regions.names[b.ri]
		}
		if a.server != b.server {
			return a.server < b.server
		}
		if a.year != b.year {
			return a.year < b.year
		}
		return a.month < b.month
	})
	total := len(slotOf)
	off := 0
	for _, si := range order {
		slots[si].next = off
		off += slots[si].count
	}
	down := make([]float64, total)
	lat := make([]float64, total)
	j := 0
	c.Reset()
	const fillCols = ColTierDir | ColMbps | ColRTT
	for b := c.NextColumns(fillCols); b != nil; b = c.NextColumns(fillCols) {
		for i := 0; i < b.N; i++ {
			if !keep(b, i) {
				continue
			}
			s := &slots[slotOf[j]]
			j++
			down[s.next] = b.Mbps[i]
			lat[s.next] = b.RTTms[i]
			s.next++
		}
	}
	out := make([]PerfPoint, 0, len(order))
	for _, si := range order {
		s := &slots[si]
		d := down[s.next-s.count : s.next]
		l := lat[s.next-s.count : s.next]
		p95, _ := stats.PercentileInPlace(d, 95)
		p5, _ := stats.PercentileInPlace(l, 5)
		out = append(out, PerfPoint{
			ServerID: s.server, Region: regions.names[s.ri], Month: s.month, Year: s.year,
			P95Down: p95, P5LatMs: p5, N: len(d),
		})
	}
	return out
}

// MarginalKDE returns the kernel density of one PerfPoint dimension, for
// the marginal curves on Fig. 4's axes.
func MarginalKDE(points []PerfPoint, latency bool) ([]stats.KDEPoint, error) {
	xs := make([]float64, 0, len(points))
	for _, p := range points {
		if latency {
			xs = append(xs, p.P5LatMs)
		} else {
			xs = append(xs, p.P95Down)
		}
	}
	return stats.KDE(xs, 128, 0)
}

// --- Fig. 5: relative tier differences ------------------------------------------

// Metric selects which measurement dimension a tier delta compares.
type Metric int

// Comparable metrics (the paper's d/u/l subscripts).
const (
	MetricDownload Metric = iota
	MetricUpload
	MetricLatency
)

// String implements fmt.Stringer.
func (m Metric) String() string {
	switch m {
	case MetricDownload:
		return "download"
	case MetricUpload:
		return "upload"
	default:
		return "latency"
	}
}

// TierDelta is one same-hour premium/standard comparison:
// Δ = (T_prem - T_std) / T_std (§4.1).
type TierDelta struct {
	ServerID int
	Time     time.Time
	Metric   Metric
	Delta    float64
}

// TierDeltasCursor pairs measurements of the two tiers taken for the same
// (server, region, direction) in the same hour and computes the relative
// difference for the requested metric. It asks for the one float column the
// metric names and keeps one value per (tier, server, hour) — the last one
// delivered — never the input stream.
func TierDeltasCursor(c Cursor, region string, metric Metric) []TierDelta {
	type key struct {
		server int
		hour   int64
	}
	// Latency deltas ride on download tests (each test reports RTT).
	wantDir, need := netsim.Download, ColTime|ColServer|ColRegion|ColTierDir
	if metric == MetricUpload {
		wantDir = netsim.Upload
	}
	if metric == MetricLatency {
		need |= ColRTT
	} else {
		need |= ColMbps
	}
	prem := make(map[key]float64)
	std := make(map[key]float64)
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		code := int32(slices.Index(b.RegionNames, region))
		vals := b.Mbps
		if metric == MetricLatency {
			vals = b.RTTms
		}
		for i, r := range b.Regions {
			if r != code || b.Dirs[i] != wantDir {
				continue
			}
			k := key{b.Servers[i], b.Times[i] / int64(time.Hour)}
			if b.Tiers[i] == bgp.Premium {
				prem[k] = vals[i]
			} else {
				std[k] = vals[i]
			}
		}
	}
	var out []TierDelta
	for k, pv := range prem {
		sv, ok := std[k]
		if !ok || sv == 0 {
			continue
		}
		out = append(out, TierDelta{
			ServerID: k.server,
			Time:     time.Unix(k.hour*3600, 0).UTC(),
			Metric:   metric,
			Delta:    (pv - sv) / sv,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Time.Equal(out[j].Time) {
			return out[i].Time.Before(out[j].Time)
		}
		return out[i].ServerID < out[j].ServerID
	})
	return out
}

// DeltaCDF builds the empirical CDF of the deltas (one Fig. 5 curve).
func DeltaCDF(deltas []TierDelta) ([]stats.CDFPoint, error) {
	xs := make([]float64, len(deltas))
	for i, d := range deltas {
		xs[i] = d.Delta
	}
	return stats.CDF(xs)
}

// FractionStandardHigher returns the fraction of throughput deltas where
// the standard tier outperformed premium (Δ < 0).
func FractionStandardHigher(deltas []TierDelta) float64 {
	if len(deltas) == 0 {
		return 0
	}
	n := 0
	for _, d := range deltas {
		if d.Delta < 0 {
			n++
		}
	}
	return float64(n) / float64(len(deltas))
}

// FractionWithin returns the fraction of deltas with |Δ| < bound (the
// paper: <50 % in over 92 % of measurements).
func FractionWithin(deltas []TierDelta, bound float64) float64 {
	if len(deltas) == 0 {
		return 0
	}
	n := 0
	for _, d := range deltas {
		if d.Delta < bound && d.Delta > -bound {
			n++
		}
	}
	return float64(n) / float64(len(deltas))
}

// --- §4.1: premium-tier loss attribution ----------------------------------------

// LossySummary reports a server whose premium-tier download tests carried
// persistent loss.
type LossySummary struct {
	ServerID int
	MeanLoss float64
	N        int
}

// PremiumLossTargetsCursor returns servers whose average premium-tier
// download loss exceeds the threshold (the paper found eight above 10 %),
// lossiest first, equal means by server ID.
func PremiumLossTargetsCursor(c Cursor, region string, threshold float64) []LossySummary {
	sum := make(map[int]float64)
	n := make(map[int]int)
	const need = ColServer | ColRegion | ColTierDir | ColLoss
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		code := int32(slices.Index(b.RegionNames, region))
		for i, r := range b.Regions {
			if r != code || b.Tiers[i] != bgp.Premium || b.Dirs[i] != netsim.Download {
				continue
			}
			// Folded in record order, so a mean is the same bits however
			// the stream was batched.
			sum[b.Servers[i]] += b.Loss[i]
			n[b.Servers[i]]++
		}
	}
	var out []LossySummary
	for id, s := range sum {
		mean := s / float64(n[id])
		if mean > threshold {
			out = append(out, LossySummary{ServerID: id, MeanLoss: mean, N: n[id]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].MeanLoss != out[j].MeanLoss {
			return out[i].MeanLoss > out[j].MeanLoss
		}
		return out[i].ServerID < out[j].ServerID
	})
	return out
}

// --- Fig. 8: business-type breakdown ---------------------------------------------

// BusinessOf resolves a server's ipinfo-style business category via its AS.
func BusinessOf(topo *topology.Topology, serverID int) topology.BusinessType {
	s := topo.Server(serverID)
	if s == nil {
		return topology.BizUnknown
	}
	a := topo.AS(s.ASN)
	if a == nil {
		return topology.BizUnknown
	}
	return a.Business
}

// Fig8Row counts congested and total servers of one business type.
type Fig8Row struct {
	Region    string
	Type      topology.BusinessType
	Congested int
	Total     int
}

// Fig8Counts groups servers by business type per region, splitting
// congested from non-congested (congested = pair flagged by the >10 %-of-
// days rule).
func Fig8Counts(topo *topology.Topology, region string, serverIDs []int, congested map[int]bool) []Fig8Row {
	counts := make(map[topology.BusinessType]*Fig8Row)
	for _, id := range serverIDs {
		b := BusinessOf(topo, id)
		row := counts[b]
		if row == nil {
			row = &Fig8Row{Region: region, Type: b}
			counts[b] = row
		}
		row.Total++
		if congested[id] {
			row.Congested++
		}
	}
	var out []Fig8Row
	for _, row := range counts {
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}
