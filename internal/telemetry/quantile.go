package telemetry

import (
	"math"
	"sort"
	"strconv"
	"time"

	"github.com/clasp-measurement/clasp/internal/tsdb"
)

// BucketDelta is one le bucket of a windowed histogram: the cumulative
// count of observations <= LE that fell inside the window.
type BucketDelta struct {
	LE    float64
	Count uint64
}

// HistogramWindow is one histogram series' activity within a time window,
// reconstructed from scraped cumulative bucket series: Buckets are
// cumulative and ascending by LE, Count is the total observations in the
// window.
type HistogramWindow struct {
	Tags    tsdb.Tags // family tags, "le" removed
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

// WindowsFromSeries reconstructs the windowed histograms of one metric
// family from its scraped "<family>_bucket" series (e.g. decoded from a
// /debug/obs/history response). from/to bound the window, zero times
// meaning unbounded on that side. The baseline at `from` and the end state
// at `to` are both "last cumulative value at or before the boundary", which
// may predate the window itself, so fetch everything up to the window's
// end. Each input series must carry an "le" tag and the scraped "cum"
// field; series without them are skipped. The series' points must already
// be bounded above by the window end — pass the same `to` used to fetch
// them.
func WindowsFromSeries(series []tsdb.Series, from, to time.Time) []HistogramWindow {
	type bucketState struct {
		le         float64
		start, end uint64 // cumulative values at the window edges
		haveStart  bool
	}
	groups := make(map[string][]bucketState)
	groupTags := make(map[string]tsdb.Tags)
	for _, sr := range series {
		leStr, ok := sr.Tags["le"]
		if !ok {
			continue
		}
		le, err := parseBound(leStr)
		if err != nil {
			continue
		}
		st := bucketState{le: le}
		for _, p := range sr.Points {
			if !to.IsZero() && p.Time.After(to) {
				continue
			}
			cum, ok := p.Fields["cum"]
			if !ok {
				continue
			}
			// Points are time-ordered, so the last survivor of each filter
			// wins: end is cum at the last point <= to, start is cum at the
			// last point strictly before `from`.
			st.end = uint64(cum)
			if !from.IsZero() && p.Time.Before(from) {
				st.start = uint64(cum)
				st.haveStart = true
			}
		}
		key := groupKey(sr.Tags)
		groups[key] = append(groups[key], st)
		if _, seen := groupTags[key]; !seen {
			t := make(tsdb.Tags, len(sr.Tags))
			for k, v := range sr.Tags {
				if k != "le" {
					t[k] = v
				}
			}
			groupTags[key] = t
		}
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	out := make([]HistogramWindow, 0, len(keys))
	for _, k := range keys {
		bs := groups[k]
		sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
		w := HistogramWindow{Tags: groupTags[k]}
		// Cumulative counts are monotone in le at any instant, but a bucket
		// first populated mid-window has no explicit baseline: its true
		// start value is the running maximum of the baselines below it.
		var runStart, runEnd uint64
		for _, b := range bs {
			if b.haveStart && b.start > runStart {
				runStart = b.start
			}
			if b.end > runEnd {
				runEnd = b.end
			}
			var delta uint64
			if runEnd > runStart {
				delta = runEnd - runStart
			}
			w.Buckets = append(w.Buckets, BucketDelta{LE: b.le, Count: delta})
		}
		if n := len(w.Buckets); n > 0 {
			w.Count = w.Buckets[n-1].Count
		}
		out = append(out, w)
	}
	return out
}

// groupKey renders a series' tags minus "le" in canonical sorted form.
func groupKey(tags tsdb.Tags) string {
	keys := make([]string, 0, len(tags))
	for k := range tags {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += "," + k + "=" + tags[k]
	}
	return out
}

// parseBound parses a scraped le tag value ("+Inf" or a decimal bound).
func parseBound(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}
