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
	"strings"
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
// string construction in the grouping hot loop, called once per pair — in
// one allocation: the builder's buffer becomes the string.
func pairIDString(region string, serverID int, tier bgp.Tier, dir netsim.Direction) string {
	t, d := tier.String(), dir.String()
	var id [20]byte
	var b strings.Builder
	b.Grow(len(region) + len(t) + len(d) + len(id) + 3)
	b.WriteString(region)
	b.WriteByte('/')
	b.Write(strconv.AppendInt(id[:0], int64(serverID), 10))
	b.WriteByte('/')
	b.WriteString(t)
	b.WriteByte('/')
	b.WriteString(d)
	return b.String()
}

// SeriesWithServer pairs a congestion series with the server it measures
// and each sample's latency: LatMs[i] is the RTT (ms) of the test that
// measured Series.Samples[i], the column Fig. 4 reads beside throughput.
type SeriesWithServer struct {
	ServerID int
	Region   string
	Series   congestion.Series
	LatMs    []float64
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
	lats    []float64           // latency of each staged sample
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
	g.slots, g.samples, g.lats, g.slotOf, g.records = g.slots[:0], g.samples[:0], g.lats[:0], g.slotOf[:0], 0
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

// put stages one sample and its latency for the pair (ri, id) at ns (Unix
// ns). Sortedness is tracked per slot so already time-ordered pairs (the
// campaign's hour-major layout) skip sorting after the merge.
func (g *groupStage) put(ri int32, id int, ns int64, mbps, lat float64) {
	si := g.slot(ri, id, ns)
	s := &g.slots[si]
	if s.count > 0 && ns < s.last {
		s.unsorted = true
	}
	s.last = ns
	s.count++
	g.samples = append(g.samples, congestion.Sample{Unix: ns, Mbps: mbps})
	g.lats = append(g.lats, lat)
	g.slotOf = append(g.slotOf, si)
}

// anyTier, passed as the grouping kernel's tier, keeps the downloads of
// both tiers in one series per (region, server): the all-tier grouping
// PerfPointsCursor reads. Their pair IDs say "standard"; no reader of
// these series reads a pair ID.
const anyTier bgp.Tier = -1

// scan stages the (dir, tier) samples of one cursor. It filters on tier and
// direction before it touches anything else of a record, never asks for
// loss, and stages the times column's Unix nanoseconds as they are: a
// congestion.Sample holds no time.Time, so nothing is converted per record.
func (g *groupStage) scan(c Cursor, dir netsim.Direction, tier bgp.Tier) {
	const need = ColTime | ColServer | ColRegion | ColTierDir | ColMbps | ColRTT
	var regions batchRegions
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		g.records += b.N
		regions.reset(b)
		for i, d := range b.Dirs {
			if d != dir || b.Tiers[i] != tier && tier != anyTier {
				continue
			}
			g.put(regions.resolve(b.Regions[i], &g.regions), b.Servers[i], b.Times[i], b.Mbps[i], b.RTTms[i])
		}
	}
}

// byTime sorts a series' samples by time and carries each sample's latency
// with it. sort.Sort runs the pdqsort sort.Slice runs, so samples of one
// instant land where sort.Slice over the samples alone would put them.
type byTime struct {
	samples []congestion.Sample
	lats    []float64
}

func (s byTime) Len() int           { return len(s.samples) }
func (s byTime) Less(a, b int) bool { return s.samples[a].Unix < s.samples[b].Unix }
func (s byTime) Swap(a, b int) {
	s.samples[a], s.samples[b] = s.samples[b], s.samples[a]
	s.lats[a], s.lats[b] = s.lats[b], s.lats[a]
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
	buf, lats := make([]congestion.Sample, total), make([]float64, total)
	ParallelFor(len(stages), len(stages), func(r int) {
		st := stages[r]
		for ls := range st.slots {
			st.slots[ls].next += slots[st.slots[ls].merged].next
		}
		for j, ls := range st.slotOf {
			s := &st.slots[ls]
			buf[s.next], lats[s.next] = st.samples[j], st.lats[j]
			s.next++
		}
	})
	out := make([]SeriesWithServer, 0, len(order))
	for _, si := range order {
		s := &slots[si]
		end := s.next + s.count
		samples, lat := buf[s.next:end:end], lats[s.next:end:end]
		if s.unsorted {
			sort.Sort(byTime{samples, lat})
		}
		out = append(out, SeriesWithServer{
			ServerID: s.serverID,
			Region:   names[s.regionIdx],
			Series: congestion.Series{
				PairID:  pairIDString(names[s.regionIdx], s.serverID, tier, dir),
				Samples: samples,
			},
			LatMs: lat,
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
// download measurements of a stream, of both tiers, mirroring Fig. 4's use
// of p95/p5 to mitigate outliers: the stream's downloads grouped per
// (region, server) across tiers, then PerfPointsOfSeries.
func PerfPointsCursor(c Cursor) []PerfPoint {
	return PerfPointsOfSeries(GroupSeriesWithServerCursor(c, netsim.Download, anyTier))
}

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

// PerfPointsOfSeries is the Fig. 4 kernel: one point per (region, server,
// month) of grouped download series, in the series' (region, server) order
// and then by month. A series is time-ordered, so each calendar month is
// one run of its samples; the run's throughputs and latencies are copied
// into reused scratch — the series may be a shared view, never reordered —
// and each percentile is selected (stats.PercentileInPlace) rather than
// paying a full sort.
func PerfPointsOfSeries(series []SeriesWithServer) []PerfPoint {
	var out []PerfPoint
	var down, lat []float64
	var in monthSpan
	for i := range series {
		sw := &series[i]
		samples := sw.Series.Samples
		for lo := 0; lo < len(samples); {
			in.at(samples[lo].Unix)
			hi := lo + 1
			for hi < len(samples) && samples[hi].Unix < in.hi {
				hi++
			}
			down = down[:0]
			for _, s := range samples[lo:hi] {
				down = append(down, s.Mbps)
			}
			lat = append(lat[:0], sw.LatMs[lo:hi]...)
			p95, _ := stats.PercentileInPlace(down, 95)
			p5, _ := stats.PercentileInPlace(lat, 5)
			out = append(out, PerfPoint{ServerID: sw.ServerID, Month: in.month, P95Down: p95, P5LatMs: p5, N: hi - lo})
			lo = hi
		}
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
	Delta    float64
}

// TierDeltasEach pairs measurements of the two tiers taken for the same
// (server, region, direction) in the same hour and computes the relative
// difference of each metric asked for, indexed by Metric; the slots of the
// others stay nil. Download and latency deltas ride on the same download
// tests, upload deltas on the upload tests. Each metric's deltas come in
// (hour, server) order, and a (tier, server, hour) repeated in the stream
// keeps the last value delivered.
//
// It reads the stream cs deliver one after another (RecordLog.Cursors):
// each range is staged on its own ParallelFor worker into dense tables, a
// row per hour of cells by server, asking only for the columns the metrics
// name; the merge lays the ranges' rows over each other in range order, so
// the result is the one-cursor result at any number of ranges.
func TierDeltasEach(cs []Cursor, region string, metrics ...Metric) [3][]TierDelta {
	var want [3]bool
	need := ColTime | ColServer | ColRegion | ColTierDir
	for _, m := range metrics {
		want[m] = true
		if m == MetricLatency {
			need |= ColRTT
		} else {
			need |= ColMbps
		}
	}
	stages := make([]*tierStage, len(cs))
	ParallelFor(len(cs), len(cs), func(r int) {
		stages[r] = newTierStage()
		stages[r].scan(cs[r], region, need, want)
	})
	return mergeTierStages(stages, want)
}

// tierCell is one (server, hour) of a tier comparison: the last value
// delivered per metric and tier, at index tierSide(metric, tier), and a bit
// per index that says whether one was.
type tierCell struct {
	v   [6]float64
	set uint8
}

// tierSide indexes a tierCell: premium and standard side by side per metric.
func tierSide(m Metric, tier bgp.Tier) int {
	if tier == bgp.Premium {
		return 2 * int(m)
	}
	return 2*int(m) + 1
}

// tierStage is one block range's tables: a row per hour the range holds,
// each a slice of cells indexed by the range's server slot.
type tierStage struct {
	servers  []int     // slot -> server ID
	dense    [][]int32 // one table (denseTable's region 0): server ID -> slot+1
	overflow map[int]int32

	rowOf    map[int64]int32 // hour -> row
	rows     [][]tierCell
	lastHour int64 // hour of row lastRow; the stream is hour-major
	lastRow  int32

	premKeys [3]int // cells whose premium side of a metric was set: a bound on the deltas
}

func newTierStage() *tierStage {
	return &tierStage{rowOf: make(map[int64]int32), lastRow: -1}
}

// slot returns the range's slot of server id, adding one.
func (st *tierStage) slot(id int) int32 {
	if id >= 0 && id < denseServerMax {
		t := denseTable(&st.dense, 0, id)
		if si := t[id] - 1; si >= 0 {
			return si
		}
		t[id] = int32(len(st.servers)) + 1
	} else {
		if st.overflow == nil {
			st.overflow = make(map[int]int32)
		}
		if si, ok := st.overflow[id]; ok {
			return si
		}
		st.overflow[id] = int32(len(st.servers))
	}
	st.servers = append(st.servers, id)
	return int32(len(st.servers)) - 1
}

// row returns the row of hour, adding one as wide as the servers seen.
func (st *tierStage) row(hour int64) int32 {
	if st.lastRow >= 0 && hour == st.lastHour {
		return st.lastRow
	}
	ri, ok := st.rowOf[hour]
	if !ok {
		ri = int32(len(st.rows))
		st.rowOf[hour] = ri
		st.rows = append(st.rows, make([]tierCell, len(st.servers)))
	}
	st.lastHour, st.lastRow = hour, ri
	return ri
}

// put records v as the latest value of metric m from tier in cell c.
func (st *tierStage) put(c *tierCell, m Metric, tier bgp.Tier, v float64) {
	i := tierSide(m, tier)
	if tier == bgp.Premium && c.set&(1<<i) == 0 {
		st.premKeys[m]++
	}
	c.v[i] = v
	c.set |= 1 << i
}

// scan stages the region's records of one cursor.
func (st *tierStage) scan(c Cursor, region string, need Columns, want [3]bool) {
	for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
		code := int32(slices.Index(b.RegionNames, region))
		for i, r := range b.Regions {
			if r != code {
				continue
			}
			ri := st.row(b.Times[i] / int64(time.Hour))
			si := st.slot(b.Servers[i])
			if int(si) >= len(st.rows[ri]) {
				st.rows[ri] = append(st.rows[ri], make([]tierCell, int(si)+1-len(st.rows[ri]))...)
			}
			cell, tier := &st.rows[ri][si], b.Tiers[i]
			if b.Dirs[i] == netsim.Upload {
				if want[MetricUpload] {
					st.put(cell, MetricUpload, tier, b.Mbps[i])
				}
				continue
			}
			if want[MetricDownload] {
				st.put(cell, MetricDownload, tier, b.Mbps[i])
			}
			if want[MetricLatency] {
				st.put(cell, MetricLatency, tier, b.RTTms[i])
			}
		}
	}
}

// mergeTierStages lays the ranges' rows over each other hour by hour, in
// range order and one value at a time, so a later range's value replaces
// an earlier one's as a later record does inside a range. Hours ascend and
// each hour's servers are laid out by ascending ID, so the deltas come out
// in (hour, server) order as they are emitted.
func mergeTierStages(stages []*tierStage, want [3]bool) (out [3][]TierDelta) {
	var metrics []Metric
	for m, ok := range want {
		if ok {
			metrics = append(metrics, Metric(m))
		}
	}
	var servers []int
	var hours []int64
	for _, st := range stages {
		servers = append(servers, st.servers...)
		for hour := range st.rowOf {
			hours = append(hours, hour)
		}
	}
	slices.Sort(servers)
	servers = slices.Compact(servers)
	slices.Sort(hours)
	hours = slices.Compact(hours)
	// rank maps each range's slots onto positions in servers.
	rank := make([][]int32, len(stages))
	for r, st := range stages {
		rank[r] = make([]int32, len(st.servers))
		for si, id := range st.servers {
			pos, _ := slices.BinarySearch(servers, id)
			rank[r][si] = int32(pos)
		}
	}
	for _, m := range metrics {
		bound := 0
		for _, st := range stages {
			bound += st.premKeys[m]
		}
		out[m] = make([]TierDelta, 0, bound)
	}
	row := make([]tierCell, len(servers))
	for _, hour := range hours {
		clear(row)
		for r, st := range stages {
			ri, ok := st.rowOf[hour]
			if !ok {
				continue
			}
			for si := range st.rows[ri] {
				src := &st.rows[ri][si]
				if src.set == 0 {
					continue
				}
				dst := &row[rank[r][si]]
				for i := range src.v {
					if src.set&(1<<i) != 0 {
						dst.v[i] = src.v[i]
					}
				}
				dst.set |= src.set
			}
		}
		for pos := range row {
			c := &row[pos]
			for _, m := range metrics {
				p, s := tierSide(m, bgp.Premium), tierSide(m, bgp.Standard)
				if c.set&(1<<p) == 0 || c.set&(1<<s) == 0 || c.v[s] == 0 {
					continue
				}
				out[m] = append(out[m], TierDelta{ServerID: servers[pos], Delta: (c.v[p] - c.v[s]) / c.v[s]})
			}
		}
	}
	for _, m := range metrics {
		if len(out[m]) == 0 {
			out[m] = nil
		}
	}
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
