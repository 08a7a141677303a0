package congestion

import (
	"cmp"
	"math"
	"slices"
	"sync"
	"time"
	"unsafe"

	"github.com/clasp-measurement/clasp/internal/obs"
)

var (
	obsPartitions  = obs.Default().Counter("congestion_partitions_total")
	obsSweepPoints = obs.Default().Counter("congestion_sweep_points_total")
)

// Partition is the memoized per-day decomposition of one series: the
// threshold sweeps of Fig. 2 and the verdict read its days and its
// per-sample day index instead of re-splitting the series.
//
// A Partition is cheap to build (one pass when samples are time-sorted,
// as grouped campaign series are) and safe for concurrent use once built:
// a campaign result keeps one partition per series on first use and
// every downstream analysis — possibly several rendering concurrently —
// shares it. The split never changes after the build, so the sweeps read
// it without a lock; only the verdict is cached, under one.
type Partition struct {
	samples []Sample
	days    []Day   // ascending by day index; every day with >= 1 sample
	dayOf   []int32 // per-sample index into days

	mu      sync.Mutex // guards verdict
	verdict *Verdict   // the verdict at verdict.H
}

// Verdict is the §3.3 detector's answer for one pair at a threshold H, as
// integer tallies: what the report's pair table, Fig. 6, the Fig. 8 rule and
// the headlines read. A day qualifies with at least MinDaySamples samples;
// an event is a sample on a qualifying day whose VH(s,t) exceeds H (a
// zero-peak day has none).
type Verdict struct {
	H             float64
	Days          int // qualifying days
	CongestedDays int // qualifying days with V > H
	Hours         int // samples on qualifying days
	Events        int
	EventDays     int // qualifying days holding at least one event
	// HourEvents and HourSamples count the events and every sample of the
	// series by UTC hour of day.
	HourEvents, HourSamples [24]int
}

// NewPartition splits a series into its per-day summary once. All days
// are retained regardless of sample count; qualification thresholds are
// applied by the accessors so one partition serves any minSamples. The
// samples slice is referenced, not copied.
func NewPartition(s Series) *Partition {
	obsPartitions.Inc()
	p := &Partition{samples: s.Samples}
	n := len(s.Samples)
	if n == 0 {
		return p
	}
	// Grouped campaign samples are hourly, so days run ~n/24; n/16+1 leaves
	// slack without waste.
	days := make([]Day, 0, n/16+1)
	dayOf := make([]int32, n)
	// Time-sorted samples (every grouped campaign series) only ever extend
	// the last day: one pass, no map.
	i := 0
	for ; i < n; i++ {
		smp := &s.Samples[i]
		d := DayOf(smp.Unix)
		last := len(days) - 1
		if last < 0 || d > days[last].Day {
			days = append(days, Day{Day: d, Tmax: smp.Mbps, Tmin: smp.Mbps})
			last++
		} else if d < days[last].Day {
			break
		}
		days[last].add(smp.Mbps)
		dayOf[i] = int32(last)
	}
	p.days, p.dayOf = days, dayOf
	if i < n {
		p.splitUnsorted()
	}
	for i := range p.days {
		day := &p.days[i]
		if day.Tmax > 0 {
			day.V = (day.Tmax - day.Tmin) / day.Tmax
		}
	}
	return p
}

// Bytes returns the memory the partition holds, counted up front: its own
// struct, the day split, the per-sample day index and one verdict. The
// samples it references belong to the series and are not counted.
func (p *Partition) Bytes() int64 {
	return int64(unsafe.Sizeof(*p)) + int64(cap(p.days))*int64(unsafe.Sizeof(Day{})) +
		int64(cap(p.dayOf))*4 + int64(unsafe.Sizeof(Verdict{}))
}

func (d *Day) add(mbps float64) {
	if mbps > d.Tmax {
		d.Tmax = mbps
	}
	if mbps < d.Tmin {
		d.Tmin = mbps
	}
	d.Samples++
}

// splitUnsorted redoes the day split of samples that step back to an
// earlier day: it visits the samples day by day — a stable sort of their
// indices, so a day's samples keep their order — and the days come out
// ascending, each summarised from its samples in sample order, as the
// time-sorted pass summarises them.
func (p *Partition) splitUnsorted() {
	order := make([]int32, len(p.samples))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		return cmp.Compare(DayOf(p.samples[a].Unix), DayOf(p.samples[b].Unix))
	})
	p.days = p.days[:0]
	for _, i := range order {
		smp := &p.samples[i]
		if d, last := DayOf(smp.Unix), len(p.days)-1; last < 0 || d != p.days[last].Day {
			p.days = append(p.days, Day{Day: d, Tmax: smp.Mbps, Tmin: smp.Mbps})
		}
		p.days[len(p.days)-1].add(smp.Mbps)
		p.dayOf[i] = int32(len(p.days) - 1)
	}
}

// Verdict returns the partition's verdict at threshold h. It is built in
// one pass over the samples the first time it is asked for and cached for
// that h (callers overwhelmingly use one threshold); the result is shared
// and must not be modified.
func (p *Partition) Verdict(h float64) *Verdict {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.verdict != nil && p.verdict.H == h {
		return p.verdict
	}
	v := &Verdict{H: h}
	eventDay := make([]bool, len(p.days))
	for i := range p.samples {
		smp := &p.samples[i]
		hr := hourOfDay(smp.Unix)
		v.HourSamples[hr]++
		di := p.dayOf[i]
		day := &p.days[di]
		if day.Samples < MinDaySamples {
			continue
		}
		v.Hours++
		if day.Tmax > 0 && (day.Tmax-smp.Mbps)/day.Tmax > h {
			v.Events++
			v.HourEvents[hr]++
			eventDay[di] = true
		}
	}
	for di := range p.days {
		if p.days[di].Samples < MinDaySamples {
			continue
		}
		v.Days++
		if p.days[di].V > h {
			v.CongestedDays++
		}
		if eventDay[di] {
			v.EventDays++
		}
	}
	p.verdict = v
	return v
}

// EventsIn extracts the congestion event times of a pre-built partition —
// identical output to Events on the original series, without re-splitting.
func (d *Detector) EventsIn(p *Partition) []time.Time {
	var out []time.Time
	for i := range p.samples {
		day := &p.days[p.dayOf[i]]
		if day.Tmax <= 0 || day.Samples < MinDaySamples {
			continue
		}
		smp := &p.samples[i]
		if (day.Tmax-smp.Mbps)/day.Tmax > d.H {
			out = append(out, smp.T())
		}
	}
	return out
}

// Partitions splits every series once, for callers that run both sweeps
// over the same series set.
func Partitions(series []Series) []*Partition {
	out := make([]*Partition, len(series))
	for i := range series {
		out[i] = NewPartition(series[i])
	}
	return out
}

// thresholdBins counts values against a grid of thresholds in one pass:
// each value is binned once by its rank, the number of grid thresholds it
// exceeds, found exactly by `<` steps from the guess of a bucket table over
// the grid's finite span, so in O(1) steps whatever the grid. A value
// compares as `v > h` would against every h: NaN exceeds nothing.
type thresholdBins struct {
	grid      []float64 // the distinct non-NaN thresholds, ascending
	lo, scale float64   // bucket i starts at lo + i/scale
	start     []int32   // per bucket: the rank of its lower edge, a guess for its values
	counts    []int     // counts[k]: values of rank k
}

// binScratch holds the bins of a grid of up to 32 thresholds (the default
// has 21) on a sweep's stack, so the sweep allocates only its points.
type binScratch struct {
	grid   [32]float64
	counts [33]int
	start  [4 * 32]int32
}

// newThresholdBins prepares the bins of the thresholds hs, in any order
// and with repeats, in sc when they fit.
func newThresholdBins(hs []float64, sc *binScratch) thresholdBins {
	b := thresholdBins{grid: sc.grid[:0], counts: sc.counts[:], start: sc.start[:]}
	if len(hs) > len(sc.grid) {
		b = thresholdBins{grid: make([]float64, 0, len(hs)), counts: make([]int, len(hs)+1), start: make([]int32, 4*len(hs))}
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, h := range hs {
		if !math.IsNaN(h) {
			b.grid = append(b.grid, h)
			if !math.IsInf(h, 0) {
				lo, hi = min(lo, h), max(hi, h)
			}
		}
	}
	slices.Sort(b.grid)
	b.grid = slices.Compact(b.grid)
	b.counts, b.start = b.counts[:len(b.grid)+1], b.start[:0]
	if hi > lo { // four buckets per threshold over the finite span
		b.start = b.start[:4*len(b.grid)]
		b.lo, b.scale = lo, float64(len(b.start))/(hi-lo)
		for i, k := 0, 0; i < len(b.start); i++ {
			for k < len(b.grid) && b.grid[k] < lo+float64(i)/b.scale {
				k++
			}
			b.start[i] = int32(k)
		}
	}
	return b
}

// add bins the value v.
func (b *thresholdBins) add(v float64) {
	k := 0 // NaN, or below the span
	if x := (v - b.lo) * b.scale; x >= float64(len(b.start)) {
		k = len(b.grid)
	} else if x >= 0 {
		k = int(b.start[int(x)])
	}
	for k < len(b.grid) && b.grid[k] < v {
		k++
	}
	for k > 0 && !(b.grid[k-1] < v) {
		k--
	}
	b.counts[k]++
}

// points returns one point per threshold of hs, in hs' order: the share of
// the binned values that exceed it.
func (b *thresholdBins) points(hs []float64) []SweepPoint {
	above, total := b.counts, 0 // above[k]: the values of rank > k, which exceed grid[k]
	for k := len(above) - 1; k >= 0; k-- {
		total, above[k] = total+above[k], total
	}
	out := make([]SweepPoint, len(hs))
	for i, h := range hs {
		out[i].H = h
		if k, ok := slices.BinarySearch(b.grid, h); ok && total > 0 {
			out[i].Fraction = float64(above[k]) / float64(total)
		}
	}
	obsSweepPoints.Add(uint64(len(hs)))
	return out
}

// SweepDaysPartitioned evaluates the Fig. 2a day sweep over pre-built
// partitions: each qualifying day's V(s,d) is binned once against the
// grid hs (any order, repeats allowed), and each point is the share of
// qualifying days whose V exceeds its threshold. minSamples <= 0 means
// MinDaySamples.
func SweepDaysPartitioned(parts []*Partition, hs []float64, minSamples int) []SweepPoint {
	var sc binScratch
	b, minSamples := newThresholdBins(hs, &sc), cmp.Or(max(minSamples, 0), MinDaySamples)
	for _, p := range parts {
		for i := range p.days {
			if d := &p.days[i]; d.Samples >= minSamples {
				b.add(d.V)
			}
		}
	}
	return b.points(hs)
}

// SweepHoursPartitioned evaluates the Fig. 2b hour sweep over pre-built
// partitions: each sample on a qualifying day is a measured hour, and its
// VH(s,t) is binned once against the grid hs. A zero-peak day's samples
// are hours that exceed no threshold (NaN), as Detector.Events skips them.
func SweepHoursPartitioned(parts []*Partition, hs []float64, minSamples int) []SweepPoint {
	var sc binScratch
	b, minSamples := newThresholdBins(hs, &sc), cmp.Or(max(minSamples, 0), MinDaySamples)
	for _, p := range parts {
		for i := range p.samples {
			switch d := &p.days[p.dayOf[i]]; {
			case d.Samples < minSamples:
			case d.Tmax <= 0:
				b.add(math.NaN())
			default:
				b.add((d.Tmax - p.samples[i].Mbps) / d.Tmax)
			}
		}
	}
	return b.points(hs)
}
