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
	lastIdx int32    // the last answer
}

func (t *regionTable) intern(name string) int32 {
	if int(t.lastIdx) < len(t.names) && t.names[t.lastIdx] == name {
		return t.lastIdx
	}
	ri := int32(slices.Index(t.names, name))
	if ri < 0 {
		ri = int32(len(t.names))
		t.names = append(t.names, name)
	}
	t.lastIdx = ri
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

// groupStage is one block range's half of the count-then-fill grouping
// kernel for one (direction, tier): put resolves each sample's pair slot,
// range-local, and appends the sample to a staging buffer in delivery order.
// mergeGroups then maps every range's slots onto the global pairs, in range
// order, and scatters all the staged samples into one contiguous pre-sized
// buffer whose subslices become the series. Its one feeder is
// GroupSeriesWithServerRanges' column loop over a finished record stream.
// Stages never escape a call, so they are pooled, buffers and all.
type groupStage struct {
	regions  regionTable
	tables   [][]int32 // per region: serverID -> slot+1
	overflow map[overflowKey]int32
	slots    []pairSlot

	samples []congestion.Sample // staged, in delivery order
	slotOf  []int32             // slot of each staged sample
	records int                 // records scanned, kept or not
}

type pairSlot struct {
	regionIdx   int32
	serverID    int
	count, next int   // sample count; merged: first index in the output buffer, staged: fill cursor into it
	first, last int64 // first and last staged sample time (Unix ns), for the sorted check
	unsorted    bool
	merged      int32 // staged: the global slot mergeGroups maps it to
}

// overflowKey identifies a pair whose server ID is outside [0, denseServerMax).
type overflowKey struct {
	regionIdx int32
	serverID  int
}

// denseTable returns region ri's serverID-indexed table in *tables, adding
// tables up to ri and growing ri's to hold id, which must be in
// [0, denseServerMax).
func denseTable[T any](tables *[][]T, ri int32, id int) []T {
	for int(ri) >= len(*tables) {
		*tables = append(*tables, nil)
	}
	t := (*tables)[ri]
	if id >= len(t) {
		nt := make([]T, id+64)
		copy(nt, t)
		(*tables)[ri] = nt
		t = nt
	}
	return t
}

var groupStages = sync.Pool{New: func() any { return new(groupStage) }}

// newGroupStage takes an empty stage from the pool.
func newGroupStage() *groupStage {
	g := groupStages.Get().(*groupStage)
	g.regions = regionTable{names: g.regions.names[:0]}
	for _, t := range g.tables {
		clear(t)
	}
	clear(g.overflow)
	g.slots, g.samples, g.slotOf, g.records = g.slots[:0], g.samples[:0], g.slotOf[:0], 0
	return g
}

// slot returns the slot of the pair (ri, id), ri an index of g.regions,
// adding one whose first sample is at ns. It resolves through a dense
// serverID table per region, so no string is hashed.
func (g *groupStage) slot(ri int32, id int, ns int64) int32 {
	if id >= 0 && id < denseServerMax {
		t := denseTable(&g.tables, ri, id)
		if si := t[id] - 1; si >= 0 {
			return si
		}
		t[id] = int32(len(g.slots)) + 1
	} else {
		if g.overflow == nil {
			g.overflow = make(map[overflowKey]int32)
		}
		k := overflowKey{ri, id}
		if si, ok := g.overflow[k]; ok {
			return si
		}
		g.overflow[k] = int32(len(g.slots))
	}
	g.slots = append(g.slots, pairSlot{regionIdx: ri, serverID: id, first: ns})
	return int32(len(g.slots)) - 1
}

// put stages one sample for the pair (ri, id) at ns (Unix ns). Sortedness
// is tracked per slot so already time-ordered pairs (the campaign's
// hour-major layout) skip sorting after the merge.
func (g *groupStage) put(ri int32, id int, ns int64, mbps float64) {
	si := g.slot(ri, id, ns)
	s := &g.slots[si]
	if s.count > 0 && ns < s.last {
		s.unsorted = true
	}
	s.last = ns
	s.count++
	g.samples = append(g.samples, congestion.Sample{Unix: ns, Mbps: mbps})
	g.slotOf = append(g.slotOf, si)
}

// scan stages the (dir, tier) samples of one cursor. It filters on tier and
// direction before it touches anything else of a record, never asks for
// latency or loss, and stages the times column's Unix nanoseconds as they
// are: a congestion.Sample holds no time.Time, so nothing is converted per
// record.
func (g *groupStage) scan(c Cursor, dir netsim.Direction, tier bgp.Tier) {
	const need = ColTime | ColServer | ColRegion | ColTierDir | ColMbps
	var regions batchRegions
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		g.records += b.N
		regions.reset(b)
		for i, d := range b.Dirs {
			if d != dir || b.Tiers[i] != tier {
				continue
			}
			g.put(regions.resolve(b.Regions[i], &g.regions), b.Servers[i], b.Times[i], b.Mbps[i])
		}
	}
}

// mergeGroups turns the ranges' staged samples into per-pair series. A
// range's slots map onto global (region name, server ID) slots — resolved
// by a stage of their own — in range order, so a pair's samples land in the
// order one cursor over the whole stream would have staged them; a global
// slot is unsorted when any range's slot was, or when a range's first
// sample of the pair is earlier than the previous range's last. Each range
// then scatters its own samples, on its own worker, into the positions the
// ranges before it leave free. The result shares no memory with the stages.
func mergeGroups(stages []*groupStage, dir netsim.Direction, tier bgp.Tier) []SeriesWithServer {
	m := newGroupStage()
	defer groupStages.Put(m)
	total := 0
	for _, st := range stages {
		total += len(st.samples)
		for ls := range st.slots {
			s := &st.slots[ls]
			s.merged = m.slot(m.regions.intern(st.regions.names[s.regionIdx]), s.serverID, s.first)
			g := &m.slots[s.merged]
			if s.unsorted || g.count > 0 && s.first < g.last {
				g.unsorted = true
			}
			g.last = s.last
			s.next = g.count // the pair's samples the ranges before this one staged
			g.count += s.count
		}
	}
	slots, names := m.slots, m.regions.names
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
			return names[ka.regionIdx] < names[kb.regionIdx]
		}
		return ka.serverID < kb.serverID
	})
	off := 0
	for _, si := range order {
		slots[si].next = off
		off += slots[si].count
	}
	buf := make([]congestion.Sample, total)
	ParallelFor(len(stages), len(stages), func(r int) {
		st := stages[r]
		for ls := range st.slots {
			st.slots[ls].next += slots[st.slots[ls].merged].next
		}
		for j, ls := range st.slotOf {
			s := &st.slots[ls]
			buf[s.next] = st.samples[j]
			s.next++
		}
	})
	out := make([]SeriesWithServer, 0, len(order))
	for _, si := range order {
		s := &slots[si]
		samples := buf[s.next : s.next+s.count : s.next+s.count]
		if s.unsorted {
			sort.Slice(samples, func(a, b int) bool { return samples[a].Unix < samples[b].Unix })
		}
		out = append(out, SeriesWithServer{
			ServerID: s.serverID,
			Region:   names[s.regionIdx],
			Series: congestion.Series{
				PairID:  pairIDString(names[s.regionIdx], s.serverID, tier, dir),
				Samples: samples,
			},
		})
	}
	return out
}

// GroupSeriesWithServerCursor groups a measurement stream into per-pair
// series with the server attribution the congestion-by-business-type and
// Fig. 6 analyses need: GroupSeriesWithServerRanges over one range.
func GroupSeriesWithServerCursor(c Cursor, dir netsim.Direction, tier bgp.Tier) []SeriesWithServer {
	return GroupSeriesWithServerRanges([]Cursor{c}, dir, tier)
}

// GroupSeriesWithServerRanges groups the stream that cs deliver one after
// another (RecordLog.Cursors) into per-pair series: each range is staged on
// its own ParallelFor worker, and mergeGroups puts the stages together in
// range order, so the result is the one-cursor result at any number of
// ranges. Each cursor is consumed one batch at a time, so the peak
// footprint is the output, the staged samples and one input block per
// range, independent of stream length.
func GroupSeriesWithServerRanges(cs []Cursor, dir netsim.Direction, tier bgp.Tier) []SeriesWithServer {
	sp := obs.Trace("analysis.group")
	obsGroupCalls.Inc()

	stages := make([]*groupStage, len(cs))
	ParallelFor(len(cs), len(cs), func(r int) {
		stages[r] = newGroupStage()
		stages[r].scan(cs[r], dir, tier)
	})
	out := mergeGroups(stages, dir, tier)
	records := 0
	for _, g := range stages {
		records += g.records
		groupStages.Put(g)
	}
	obsGroupRecords.Add(uint64(records))
	obsGroupSeries.Add(uint64(len(out)))
	sp.WithInt("records", records).WithInt("series", len(out)).WithInt("ranges", len(cs)).End()
	return out
}

// --- Fig. 4: monthly performance points ---------------------------------------

// PerfPoint is one scatter point of Fig. 4: a server's 95th-percentile
// download throughput and 5th-percentile latency within one month.
type PerfPoint struct {
	ServerID int
	Month    time.Month
	P95Down  float64
	P5LatMs  float64
	N        int
}

// PerfPointsCursor computes one point per (server, region, month) from the
// download measurements of a stream, mirroring Fig. 4's use of p95/p5 to
// mitigate outliers.
func PerfPointsCursor(c Cursor) []PerfPoint { return perfPoints([]Cursor{c}, 0, false) }

// PerfPointsRanges is PerfPointsCursor over the stream that cs deliver one
// after another (RecordLog.Cursors), each range scanned on its own worker.
func PerfPointsRanges(cs []Cursor) []PerfPoint { return perfPoints(cs, 0, false) }

// PerfPointsTierRanges is PerfPointsRanges over the downloads of one tier:
// a panel of Fig. 4.
func PerfPointsTierRanges(cs []Cursor, tier bgp.Tier) []PerfPoint { return perfPoints(cs, tier, true) }

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

// perfKey identifies one Fig. 4 group.
type perfKey struct {
	server, ym int // ym = year*12 + month: (year, month) order preserved
	ri         int32
}

type perfSlot struct {
	server int
	ri     int32
	year   int
	month  time.Month
	count  int
	chunks []*perfChunk // the slot's samples, perfChunkLen to a chunk
}

// perfChunkLen is how many samples a perfChunk holds: small enough that a
// group's last, partly filled chunk wastes little, large enough that
// chunking costs nothing per sample.
const perfChunkLen = 128

// perfChunk holds a run of one group's throughput and latency samples.
type perfChunk struct{ down, lat [perfChunkLen]float64 }

// perfStage is one block range's half of the Fig. 4 kernel: in one pass it
// resolves each kept download's (region, server, month) slot, range-local
// and keyed by an interned region index, and appends the throughput and
// latency to the slot's chunks. Stages never escape a call, so they are
// pooled, chunks and all.
type perfStage struct {
	regions regionTable
	idx     map[perfKey]int32
	last    [][]perfLast // per region: serverID -> the month and slot it last resolved to
	slots   []perfSlot
	spare   []*perfChunk // chunks of an earlier use, for reuse
}

// perfLast is one dense entry of perfStage.last: the ym of the pair's last
// slot and that slot+1, 0 while the pair has none.
type perfLast struct {
	ym   int
	slot int32
}

var perfStages = sync.Pool{New: func() any { return &perfStage{idx: make(map[perfKey]int32)} }}

// newPerfStage takes an empty stage from the pool.
func newPerfStage() *perfStage {
	p := perfStages.Get().(*perfStage)
	p.regions = regionTable{names: p.regions.names[:0]}
	clear(p.idx)
	for _, t := range p.last {
		clear(t)
	}
	for _, s := range p.slots {
		p.spare = append(p.spare, s.chunks...)
	}
	p.slots = p.slots[:0]
	return p
}

// slot returns the slot of k, adding one for (year, month). A dense
// per-(region, server ID) entry — groupStage's idiom — holds the month and
// slot the pair last resolved to and is tried first, so the campaign's
// hour-major layout hashes k once per pair-month, not once per download.
func (p *perfStage) slot(k perfKey, year int, month time.Month) int32 {
	var last *perfLast
	if k.server >= 0 && k.server < denseServerMax {
		last = &denseTable(&p.last, k.ri, k.server)[k.server]
		if last.slot != 0 && last.ym == k.ym {
			return last.slot - 1
		}
	}
	si, ok := p.idx[k]
	if !ok {
		si = int32(len(p.slots))
		p.idx[k] = si
		p.slots = append(p.slots, perfSlot{server: k.server, ri: k.ri, year: year, month: month})
	}
	if last != nil {
		*last = perfLast{ym: k.ym, slot: si + 1}
	}
	return si
}

// put appends one sample to slot si.
func (p *perfStage) put(si int32, down, lat float64) {
	s := &p.slots[si]
	i := s.count % perfChunkLen
	if i == 0 {
		if n := len(p.spare); n > 0 {
			s.chunks = append(s.chunks, p.spare[n-1])
			p.spare = p.spare[:n-1]
		} else {
			s.chunks = append(s.chunks, new(perfChunk))
		}
	}
	c := s.chunks[len(s.chunks)-1]
	c.down[i], c.lat[i] = down, lat
	s.count++
}

// scan stages the downloads of one cursor, of one tier when oneTier.
func (p *perfStage) scan(c Cursor, tier bgp.Tier, oneTier bool) {
	const need = ColTime | ColServer | ColRegion | ColTierDir | ColMbps | ColRTT
	var codes batchRegions
	var in monthSpan
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		codes.reset(b)
		for i, d := range b.Dirs {
			if d != netsim.Download || oneTier && b.Tiers[i] != tier {
				continue
			}
			in.at(b.Times[i])
			k := perfKey{server: b.Servers[i], ym: in.year*12 + int(in.month), ri: codes.resolve(b.Regions[i], &p.regions)}
			p.put(p.slot(k, in.year, in.month), b.Mbps[i], b.RTTms[i])
		}
	}
}

// appendSamples appends the samples the stage holds of the group named by
// region, server and ym, if it has seen the group, to down and lat.
func (p *perfStage) appendSamples(down, lat []float64, region string, server, ym int) ([]float64, []float64) {
	ri := slices.Index(p.regions.names, region)
	if ri < 0 {
		return down, lat
	}
	si, ok := p.idx[perfKey{server: server, ym: ym, ri: int32(ri)}]
	if !ok {
		return down, lat
	}
	s := &p.slots[si]
	for i, c := range s.chunks {
		n := min(perfChunkLen, s.count-i*perfChunkLen)
		down, lat = append(down, c.down[:n]...), append(lat, c.lat[:n]...)
	}
	return down, lat
}

// perfPoints is the Fig. 4 kernel: each range of cs is staged on its own
// ParallelFor worker (perfStage), the ranges' slots map onto global (region
// name, server, month) slots, and each global group's throughput and
// latency samples are gathered from the ranges' chunks, in range order —
// the order one cursor over the whole stream delivers them — into one
// reused pair of buffers, where each percentile is selected
// (stats.PercentileInPlace) rather than paying a full sort. The stream is
// read once; the footprint is the staged samples, 16 bytes each, and one
// input block per range, never the records.
func perfPoints(cs []Cursor, tier bgp.Tier, oneTier bool) []PerfPoint {
	stages := make([]*perfStage, len(cs))
	ParallelFor(len(cs), len(cs), func(r int) {
		stages[r] = newPerfStage()
		stages[r].scan(cs[r], tier, oneTier)
	})
	m := newPerfStage()
	defer func() {
		for _, p := range stages {
			perfStages.Put(p)
		}
		perfStages.Put(m)
	}()

	for _, st := range stages {
		for _, s := range st.slots {
			k := perfKey{server: s.server, ym: s.year*12 + int(s.month), ri: m.regions.intern(st.regions.names[s.ri])}
			m.slots[m.slot(k, s.year, s.month)].count += s.count
		}
	}
	slots, names := m.slots, m.regions.names
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
			return names[a.ri] < names[b.ri]
		}
		if a.server != b.server {
			return a.server < b.server
		}
		if a.year != b.year {
			return a.year < b.year
		}
		return a.month < b.month
	})
	out := make([]PerfPoint, 0, len(order))
	var down, lat []float64 // one group's samples, gathered from the ranges
	for _, si := range order {
		s := &slots[si]
		d, l := down[:0], lat[:0]
		for _, st := range stages {
			d, l = st.appendSamples(d, l, names[s.ri], s.server, s.year*12+int(s.month))
		}
		down, lat = d, l
		p95, _ := stats.PercentileInPlace(d, 95)
		p5, _ := stats.PercentileInPlace(l, 5)
		out = append(out, PerfPoint{
			ServerID: s.server, Month: s.month, P95Down: p95, P5LatMs: p5, N: len(d),
		})
	}
	return out
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

// FractionWithin returns the fraction of deltas with |Δ| < 50 % (the
// paper: over 92 % of measurements).
func FractionWithin(deltas []TierDelta) float64 {
	if len(deltas) == 0 {
		return 0
	}
	n := 0
	for _, d := range deltas {
		if d.Delta < 0.5 && d.Delta > -0.5 {
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
// download loss exceeds 2 % (the paper found eight above 10 %), lossiest
// first, equal means by server ID.
func PremiumLossTargetsCursor(c Cursor, region string) []LossySummary {
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
		if mean > 0.02 {
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
