// Columnar rows: the one in-memory representation of uncompressed points.
// A series' mutable tail and a decoded block are both a columns value — a timestamp column plus one float column per field
// name — mirroring the sealed layout in block.go, so sealing encodes
// straight from the columns and reopening decodes straight into them. No
// point owns a heap object; Point values (with their Fields maps) are
// materialised only at the Query boundary.

package tsdb

import (
	"slices"
	"sort"
	"time"
)

// columns is a time-sorted run of points in columnar form. The field list
// is append-only, so a column index stays valid for the life of the value
// (BoundHandle relies on this for its series' tail).
type columns struct {
	fields []string    // column names, in first-seen order
	times  []int64     // UnixNano, ascending
	vals   [][]float64 // vals[k][i] is field k of point i; 0 where absent
	// present[k] is nil while every point carries field k — the only state
	// a fixed-schema series ever sees — and a per-point flag column from
	// the first point that omits it.
	present [][]bool
}

func (c *columns) len() int { return len(c.times) }

// has reports whether point i carries field k.
func (c *columns) has(k, i int) bool { return c.present[k] == nil || c.present[k][i] }

// col returns the index of the named column, adding it — absent from every
// existing point — when new.
func (c *columns) col(name string) int {
	for k, f := range c.fields {
		if f == name {
			return k
		}
	}
	n := c.len()
	c.fields = append(c.fields, name)
	c.vals = append(c.vals, make([]float64, n))
	var absent []bool
	if n > 0 {
		absent = make([]bool, n)
	}
	c.present = append(c.present, absent)
	return len(c.fields) - 1
}

// omit records that the points from index n on may lack field k, turning
// the implicit "carried by all n points so far" into an explicit column.
func (c *columns) omit(k, n int) {
	if c.present[k] == nil {
		p := make([]bool, n, n+1)
		for i := range p {
			p[i] = true
		}
		c.present[k] = p
	}
}

func insertAt[T any](s []T, i int, v T) []T {
	s = append(s, v)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// insert adds one point carrying vals[j] for column cols[j] (distinct
// indices from col) at its time-sorted position, after any points with the
// same timestamp. It reports whether the point landed at the end.
func (c *columns) insert(at int64, cols []int, vals []float64) (appended bool) {
	n := c.len()
	idx := n
	if n > 0 && at < c.times[n-1] {
		idx = sort.Search(n, func(i int) bool { return c.times[i] > at })
	}
	c.times = insertAt(c.times, idx, at)
	if len(cols) == len(c.fields) {
		for j, k := range cols {
			c.vals[k] = insertAt(c.vals[k], idx, vals[j])
			if c.present[k] != nil {
				c.present[k] = insertAt(c.present[k], idx, true)
			}
		}
		return idx == n
	}
	for k := range c.fields {
		j := slices.Index(cols, k)
		v := 0.0
		if j >= 0 {
			v = vals[j]
		} else {
			c.omit(k, n)
		}
		c.vals[k] = insertAt(c.vals[k], idx, v)
		if c.present[k] != nil {
			c.present[k] = insertAt(c.present[k], idx, j >= 0)
		}
	}
	return idx == n
}

// appendRows appends len(times) points at the end, point i carrying
// vals[j][from+i] for column cols[j] (distinct indices from col): insert's
// append, a column at a time. times must not precede the last point.
func (c *columns) appendRows(times []int64, cols []int, vals [][]float64, from int) {
	n := len(times)
	if len(cols) != len(c.fields) {
		filled := make([]bool, len(c.fields))
		for _, k := range cols {
			filled[k] = true
		}
		c.padAbsent(n, filled)
	}
	for j, k := range cols {
		c.vals[k] = append(c.vals[k], vals[j][from:from+n]...)
		if c.present[k] != nil {
			for range n {
				c.present[k] = append(c.present[k], true)
			}
		}
	}
	c.times = append(c.times, times...)
}

// padAbsent extends every column not marked in filled by n points that
// lack its field. The caller appends the same n points to times and to the
// filled columns.
func (c *columns) padAbsent(n int, filled []bool) {
	base := c.len()
	for k := range c.fields {
		if filled[k] {
			continue
		}
		c.omit(k, base)
		c.vals[k] = append(c.vals[k], make([]float64, n)...)
		c.present[k] = append(c.present[k], make([]bool, n)...)
	}
}

// appendColumns appends src's points; src must share c's field list.
func (c *columns) appendColumns(src *columns) {
	base := c.len()
	c.times = append(c.times, src.times...)
	for k := range c.fields {
		c.vals[k] = append(c.vals[k], src.vals[k]...)
		switch {
		case src.present[k] != nil:
			c.omit(k, base)
			c.present[k] = append(c.present[k], src.present[k]...)
		case c.present[k] != nil:
			for range src.times {
				c.present[k] = append(c.present[k], true)
			}
		}
	}
}

// reset drops every point, keeping the columns and their capacity.
func (c *columns) reset() {
	c.times = c.times[:0]
	for k := range c.fields {
		c.vals[k] = c.vals[k][:0]
		c.present[k] = nil
	}
}

// dropPrefix discards the first n points.
func (c *columns) dropPrefix(n int) {
	c.times = slices.Delete(c.times, 0, n)
	for k := range c.fields {
		c.vals[k] = slices.Delete(c.vals[k], 0, n)
		if c.present[k] != nil {
			c.present[k] = slices.Delete(c.present[k], 0, n)
		}
	}
}

// sortedFields returns the indices of the columns at least one point
// carries, ordered by field name — the order blocks write fields in.
func (c *columns) sortedFields() []int {
	order := make([]int, 0, len(c.fields))
	for k := range c.fields {
		if c.present[k] == nil && c.len() > 0 || slices.Contains(c.present[k], true) {
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool { return c.fields[order[i]] < c.fields[order[j]] })
	return order
}

// timeRange is a [from, to) filter in UnixNano; an unset bound is open.
type timeRange struct {
	from, to       int64
	hasFrom, hasTo bool
}

// newTimeRange converts Query-style bounds, where a zero Time disables
// that side.
func newTimeRange(from, to time.Time) timeRange {
	r := timeRange{hasFrom: !from.IsZero(), hasTo: !to.IsZero()}
	if r.hasFrom {
		r.from = from.UnixNano()
	}
	if r.hasTo {
		r.to = to.UnixNano()
	}
	return r
}

func (r timeRange) contains(ns int64) bool {
	return !(r.hasFrom && ns < r.from) && !(r.hasTo && ns >= r.to)
}

// overlaps reports whether any point of a run spanning [minNs, maxNs] can
// fall inside the range.
func (r timeRange) overlaps(minNs, maxNs int64) bool {
	return !(r.hasFrom && maxNs < r.from) && !(r.hasTo && minNs >= r.to)
}

// appendPoints materialises the points inside r as Point values appended to
// dst, each with a freshly allocated Fields map and a UTC timestamp.
func (c *columns) appendPoints(dst []Point, r timeRange) []Point {
	for i, ns := range c.times {
		if !r.contains(ns) {
			continue
		}
		fields := make(map[string]float64, len(c.fields))
		for k, name := range c.fields {
			if c.has(k, i) {
				fields[name] = c.vals[k][i]
			}
		}
		dst = append(dst, Point{Time: time.Unix(0, ns).UTC(), Fields: fields})
	}
	return dst
}
