// Package stats provides the statistical primitives used throughout CLASP:
// percentiles, empirical CDFs, Gaussian kernel density estimation, the elbow
// locator used to pick the congestion threshold H.
//
// All functions are pure and operate on float64 slices. Functions that need
// sorted input document it; the exported helpers sort defensively on a copy
// unless noted otherwise.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on empty samples.
var ErrEmpty = errors.New("stats: empty sample")

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks (the same method as numpy's default).
// It copies and sorts the input.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return PercentileSorted(s, p), nil
}

// PercentileSorted returns the p-th percentile of an already-sorted sample.
// Behaviour is undefined for unsorted input. Panics on empty input.
func PercentileSorted(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 1 {
		return sorted[0]
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// PercentileInPlace returns the same value as Percentile but finds the two
// bracketing order statistics with quickselect instead of fully sorting —
// O(n) rather than O(n log n). It partially reorders xs (no copy): on
// return the selected rank k satisfies xs[:k] <= xs[k] <= xs[k+1:] under
// the same ordering sort.Float64s uses, so results agree bit-for-bit with
// the sorting implementations.
func PercentileInPlace(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 {
		return 0, errors.New("stats: percentile out of range [0,100]")
	}
	n := len(xs)
	if n == 1 {
		return xs[0], nil
	}
	rank := p / 100 * float64(n-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	xlo := selectKth(xs, lo)
	if lo == hi {
		return xlo, nil
	}
	// selectKth leaves xs[lo+1:] >= xs[lo]; the next order statistic is
	// that suffix's minimum.
	xhi := xs[lo+1]
	for _, v := range xs[lo+2:] {
		if fless(v, xhi) {
			xhi = v
		}
	}
	frac := rank - float64(lo)
	return xlo*(1-frac) + xhi*frac, nil
}

// fless is sort.Float64s's ordering — ascending with NaNs first — so
// selection and sorting agree on every input, not just NaN-free ones.
func fless(a, b float64) bool {
	return a < b || (math.IsNaN(a) && !math.IsNaN(b))
}

// selectKth moves the k-th smallest element of xs (under fless) to xs[k],
// with smaller elements to its left and larger ones to its right, and
// returns it. Deterministic median-of-three Hoare quickselect; small
// windows finish with an insertion sort.
func selectKth(xs []float64, k int) float64 {
	lo, hi := 0, len(xs)-1
	for hi-lo > 12 {
		mid := lo + (hi-lo)/2
		if fless(xs[mid], xs[lo]) {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if fless(xs[hi], xs[lo]) {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if fless(xs[hi], xs[mid]) {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for fless(xs[i], pivot) {
				i++
			}
			for fless(pivot, xs[j]) {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return xs[k] // the i/j gap holds only pivot-equal elements
		}
	}
	for a := lo + 1; a <= hi; a++ {
		for b := a; b > lo && fless(xs[b], xs[b-1]); b-- {
			xs[b], xs[b-1] = xs[b-1], xs[b]
		}
	}
	return xs[k]
}

// CDFPoint is a single point of an empirical cumulative distribution.
type CDFPoint struct {
	X float64 // sample value
	P float64 // cumulative probability in (0, 1]
}

// CDF returns the empirical CDF of xs as a sorted sequence of points with
// P(i) = (i+1)/n. Duplicate values are collapsed, keeping the highest
// cumulative probability.
func CDF(xs []float64) ([]CDFPoint, error) {
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	n := float64(len(s))
	pts := make([]CDFPoint, 0, len(s))
	for i, x := range s {
		p := float64(i+1) / n
		if len(pts) > 0 && pts[len(pts)-1].X == x {
			pts[len(pts)-1].P = p
			continue
		}
		pts = append(pts, CDFPoint{X: x, P: p})
	}
	return pts, nil
}

// Elbow locates the "elbow" of a monotonically decreasing curve y(x) using
// the maximum-distance-to-chord method: the point farthest from the straight
// line joining the first and last points. It returns the index of the elbow.
// This is the method CLASP uses on the congested-fraction-vs-H curve (§3.3)
// to justify H = 0.5.
func Elbow(xs, ys []float64) (int, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: elbow requires equal-length xs and ys")
	}
	if len(xs) < 3 {
		return 0, errors.New("stats: elbow requires at least 3 points")
	}
	x0, y0 := xs[0], ys[0]
	x1, y1 := xs[len(xs)-1], ys[len(ys)-1]
	dx, dy := x1-x0, y1-y0
	denom := math.Hypot(dx, dy)
	if denom == 0 {
		return 0, errors.New("stats: elbow endpoints coincide")
	}
	best, bestDist := 0, -1.0
	for i := range xs {
		// Perpendicular distance from (xs[i], ys[i]) to the chord.
		d := math.Abs(dy*xs[i]-dx*ys[i]+x1*y0-y1*x0) / denom
		if d > bestDist {
			bestDist = d
			best = i
		}
	}
	return best, nil
}
