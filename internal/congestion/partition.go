package congestion

import (
	"math"
	"sort"
	"sync"

	"github.com/clasp-measurement/clasp/internal/obs"
)

var (
	obsPartitions  = obs.Default().Counter("congestion_partitions_total")
	obsSweepPoints = obs.Default().Counter("congestion_sweep_points_total")
)

// Partition is the memoized per-day decomposition of one series. The
// threshold sweeps of Fig. 2 evaluate the same series at ~20 thresholds;
// before Partition existed every threshold re-split the series into days
// from scratch. A Partition splits once and answers day/hour tallies for
// any threshold from the cached decomposition, so a sweep is one split
// plus a cheap scan per threshold.
//
// A Partition is cheap to build (one pass when samples are time-sorted,
// as grouped campaign series are) and safe for concurrent use once built:
// a resident campaign memoises one partition per series on first use and
// every downstream analysis — possibly several rendering concurrently —
// shares it, so the lazy cache is filled under a lock.
type Partition struct {
	pairID  string
	samples []Sample
	days    []Day   // ascending by day index; every day with >= 1 sample
	dayOf   []int32 // per-sample index into days

	mu sync.Mutex // guards the lazy cache below

	// vhq caches VH(s,t) for samples on qualifying days (>= vhqMin
	// samples); samples on zero-peak days are kept as NaN so they count
	// as measured hours but can never exceed a threshold.
	vhq    []float64
	vhqMin int
}

// NewPartition splits a series into its per-day summary once. All days
// are retained regardless of sample count; qualification thresholds are
// applied by the accessors so one partition serves any minSamples. The
// samples slice is referenced, not copied.
func NewPartition(s Series) *Partition {
	obsPartitions.Inc()
	p := &Partition{pairID: s.PairID, samples: s.Samples}
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
			days = append(days, Day{PairID: s.PairID, Day: d, Tmax: smp.Mbps, Tmin: smp.Mbps})
			last++
		} else if d < days[last].Day {
			break
		}
		days[last].add(smp.Mbps)
		dayOf[i] = int32(last)
	}
	p.days, p.dayOf = days, dayOf
	if i < n {
		p.splitUnsorted(i)
	}
	for i := range p.days {
		day := &p.days[i]
		if day.Tmax > 0 {
			day.V = (day.Tmax - day.Tmin) / day.Tmax
		}
	}
	return p
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

// splitUnsorted finishes the day split from sample i, the first that steps
// back to an earlier day: the rest of the pass finds its day through a map,
// so days stand in first-seen order, and the ascending order Days
// promises is re-established at the end with the per-sample day indices
// remapped to the sorted positions.
func (p *Partition) splitUnsorted(i int) {
	byDay := make(map[int]int32, len(p.days))
	for j := range p.days {
		byDay[p.days[j].Day] = int32(j)
	}
	for ; i < len(p.samples); i++ {
		smp := &p.samples[i]
		d := DayOf(smp.Unix)
		di, ok := byDay[d]
		if !ok {
			di = int32(len(p.days))
			byDay[d] = di
			p.days = append(p.days, Day{PairID: p.pairID, Day: d, Tmax: smp.Mbps, Tmin: smp.Mbps})
		}
		p.days[di].add(smp.Mbps)
		p.dayOf[i] = di
	}
	perm := make([]int32, len(p.days))
	for j := range perm {
		perm[j] = int32(j)
	}
	sort.Slice(perm, func(a, b int) bool { return p.days[perm[a]].Day < p.days[perm[b]].Day })
	sorted := make([]Day, len(p.days))
	inv := make([]int32, len(p.days))
	for pos, old := range perm {
		sorted[pos] = p.days[old]
		inv[old] = int32(pos)
	}
	p.days = sorted
	for j, di := range p.dayOf {
		p.dayOf[j] = inv[di]
	}
}

// Days returns the per-day V(s,d) records, ascending by day. Days with
// fewer than minSamples observations are skipped (a half-covered day can
// fake a low V).
func (p *Partition) Days(minSamples int) []Day {
	if minSamples <= 0 {
		minSamples = MinDaySamples
	}
	out := make([]Day, 0, len(p.days))
	for _, d := range p.days {
		if d.Samples >= minSamples {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// DayTally counts qualifying days and those with V > h without allocating.
func (p *Partition) DayTally(h float64, minSamples int) (congested, total int) {
	if minSamples <= 0 {
		minSamples = MinDaySamples
	}
	for i := range p.days {
		if p.days[i].Samples < minSamples {
			continue
		}
		total++
		if p.days[i].V > h {
			congested++
		}
	}
	return congested, total
}

// hourVH returns VH(s,t) for every sample on a qualifying day, in sample
// order. Samples on zero-peak days are NaN: they count as measured hours
// but compare false against every threshold, matching Detector.Events'
// skip rule. The slice is cached per minSamples (callers overwhelmingly
// use one value).
func (p *Partition) hourVH(minSamples int) []float64 {
	if minSamples <= 0 {
		minSamples = MinDaySamples
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.vhq != nil && p.vhqMin == minSamples {
		return p.vhq
	}
	vhq := make([]float64, 0, len(p.samples))
	for i := range p.samples {
		day := &p.days[p.dayOf[i]]
		if day.Samples < minSamples {
			continue
		}
		if day.Tmax <= 0 {
			vhq = append(vhq, math.NaN())
			continue
		}
		vhq = append(vhq, (day.Tmax-p.samples[i].Mbps)/day.Tmax)
	}
	p.vhq, p.vhqMin = vhq, minSamples
	return vhq
}

// HourTally counts qualifying samples and those with VH > h — one series'
// share of a Fig. 2b point. hours counts every sample on a qualifying day
// (samples on zero-peak days are measured hours that can never be events)
// and events matches len(Detector.Events) at the same threshold.
func (p *Partition) HourTally(h float64, minSamples int) (events, hours int) {
	vhq := p.hourVH(minSamples)
	for _, v := range vhq {
		if v > h {
			events++
		}
	}
	return events, len(vhq)
}

// EventsIn extracts the congestion events of a pre-built partition —
// identical output to Events on the original series, without re-splitting.
func (d *Detector) EventsIn(p *Partition) []Event {
	var out []Event
	for i := range p.samples {
		day := &p.days[p.dayOf[i]]
		if day.Tmax <= 0 || day.Samples < MinDaySamples {
			continue
		}
		smp := &p.samples[i]
		vh := (day.Tmax - smp.Mbps) / day.Tmax
		if vh > d.H {
			out = append(out, Event{PairID: p.pairID, Time: smp.T(), Mbps: smp.Mbps, Tmax: day.Tmax, VH: vh})
		}
	}
	return out
}

// Partitions splits every series once, for callers that run several
// tallies (day sweep + hour sweep, say) over the same series set.
func Partitions(series []Series) []*Partition {
	out := make([]*Partition, len(series))
	for i := range series {
		out[i] = NewPartition(series[i])
	}
	return out
}

// SweepDaysPartitioned evaluates the Fig. 2a day sweep over pre-built
// partitions: one scan of the cached day summaries per threshold.
func SweepDaysPartitioned(parts []*Partition, hs []float64, minSamples int) []SweepPoint {
	out := make([]SweepPoint, len(hs))
	for i, h := range hs {
		congested, total := 0, 0
		for _, p := range parts {
			c, t := p.DayTally(h, minSamples)
			congested += c
			total += t
		}
		frac := 0.0
		if total > 0 {
			frac = float64(congested) / float64(total)
		}
		out[i] = SweepPoint{H: h, Fraction: frac}
	}
	obsSweepPoints.Add(uint64(len(hs)))
	return out
}

// SweepHoursPartitioned evaluates the Fig. 2b hour sweep over pre-built
// partitions; the per-sample VH cache is built once on the first threshold.
func SweepHoursPartitioned(parts []*Partition, hs []float64, minSamples int) []SweepPoint {
	out := make([]SweepPoint, len(hs))
	for i, h := range hs {
		congested, total := 0, 0
		for _, p := range parts {
			e, n := p.HourTally(h, minSamples)
			congested += e
			total += n
		}
		frac := 0.0
		if total > 0 {
			frac = float64(congested) / float64(total)
		}
		out[i] = SweepPoint{H: h, Fraction: frac}
	}
	obsSweepPoints.Add(uint64(len(hs)))
	return out
}
