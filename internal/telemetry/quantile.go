package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// BucketDelta is one le bucket of a windowed histogram: the cumulative
// count of observations <= LE that fell inside the window.
type BucketDelta struct {
	LE    float64
	Count uint64
}

// HistogramWindow is one histogram series' activity within a window, the
// difference of two snapshots (Window): Buckets are cumulative and
// ascending by LE, Count is the total observations in the window.
type HistogramWindow struct {
	Buckets []BucketDelta
	Count   uint64
}

// Quantile estimates the q-th quantile (q in [0,1]) of the window with
// Prometheus histogram_quantile semantics: find the bucket the rank falls
// in and interpolate linearly between its bounds (the lower bound of the
// first bucket is 0; a rank landing in the overflow bucket returns the
// highest finite bound). Returns NaN for an empty window.
func (w HistogramWindow) Quantile(q float64) float64 {
	if w.Count == 0 || len(w.Buckets) == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(w.Count)
	var lower float64
	var prevCum uint64
	for _, b := range w.Buckets {
		if float64(b.Count) >= rank {
			if math.IsInf(b.LE, 1) {
				return lower // overflow bucket: best answer is its floor
			}
			in := b.Count - prevCum
			if in == 0 {
				return b.LE
			}
			return lower + (b.LE-lower)*(rank-float64(prevCum))/float64(in)
		}
		if !math.IsInf(b.LE, 1) {
			lower = b.LE
		}
		prevCum = b.Count
	}
	last := w.Buckets[len(w.Buckets)-1].LE
	if math.IsInf(last, 1) {
		return lower
	}
	return last
}

// Window returns the observations a histogram gained between two
// snapshots of it, before and after, as exact per-bound deltas: at each
// bound either snapshot populates, ascending, the after count minus the
// before count. Snapshots hold cumulative counts at populated bounds only,
// so a bound first populated inside the window has no explicit before
// value; its true one is the largest before count at a lower bound, the
// running maximum. A snapshot taken after a restart counts less than the
// one before it; such a bound gains nothing. A bucket key that is not a
// bound (a number or "+Inf") is an error.
func Window(before, after obs.HistogramValue) (HistogramWindow, error) {
	type edge struct {
		le            float64
		before, after uint64
	}
	byKey := make(map[string]*edge, len(after.Buckets))
	edgeAt := func(key string) (*edge, error) {
		if e := byKey[key]; e != nil {
			return e, nil
		}
		le, err := strconv.ParseFloat(key, 64) // reads "+Inf" too
		if err != nil || math.IsNaN(le) {
			return nil, fmt.Errorf("telemetry: histogram bucket %q is not a bound", key)
		}
		e := &edge{le: le}
		byKey[key] = e
		return e, nil
	}
	for key, cum := range before.Buckets {
		e, err := edgeAt(key)
		if err != nil {
			return HistogramWindow{}, err
		}
		e.before = cum
	}
	for key, cum := range after.Buckets {
		e, err := edgeAt(key)
		if err != nil {
			return HistogramWindow{}, err
		}
		e.after = cum
	}
	edges := make([]*edge, 0, len(byKey))
	for _, e := range byKey {
		edges = append(edges, e)
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].le < edges[j].le })

	var w HistogramWindow
	var runBefore, runAfter uint64
	for _, e := range edges {
		runBefore, runAfter = max(runBefore, e.before), max(runAfter, e.after)
		var delta uint64
		if runAfter > runBefore {
			delta = runAfter - runBefore
		}
		w.Buckets = append(w.Buckets, BucketDelta{LE: e.le, Count: delta})
		w.Count = delta
	}
	return w, nil
}
