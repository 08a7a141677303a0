package tsdb

import (
	"slices"
	"strings"
	"time"
)

// The store is written through bound handles and read by no program. The
// tests write a map-form point through put and read a store back through
// query; encodeBlock and decode are the points-level entry to the block
// codec that the codec tests and the fuzzer in block_test.go speak.

// Point is one timestamped observation with float fields.
type Point struct {
	Time   time.Time
	Fields map[string]float64
}

// Series is one series as query returns it: its tags, and its points —
// sealed blocks and mutable tail alike — in time order.
type Series struct {
	Tags   Tags
	Points []Point
}

// put inserts one point through a handle bound to its own fields.
func put(s *Store, tags Tags, at time.Time, fields map[string]float64) {
	names := make([]string, 0, len(fields))
	for name := range fields {
		names = append(names, name)
	}
	slices.Sort(names)
	vals := make([]float64, len(names))
	for i, name := range names {
		vals[i] = fields[name]
	}
	s.Bind(tags, names...).Insert(at, vals...)
}

// query returns the series whose tags match every entry of match (nil
// matches all) that hold points inside [from, to), a zero Time leaving that
// side open, sorted by series key. Everything returned is the caller's.
func (s *Store) query(match Tags, from, to time.Time) []Series {
	defer s.lockAll()()
	byKey := make(map[string]*series)
	var keys []string
	for i := range s.shards {
		for k, sr := range s.shards[i].series {
			byKey[k] = sr
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []Series
	for _, k := range keys {
		tags := Tags{}
		for _, kv := range strings.Split(strings.TrimPrefix(k, measurement), ",")[1:] {
			name, val, _ := strings.Cut(kv, "=")
			tags[name] = val
		}
		if !matches(tags, match) {
			continue
		}
		var pts []Point
		for _, b := range byKey[k].blocks {
			var err error
			if pts, err = b.decode(pts); err != nil {
				panic(err)
			}
		}
		pts = appendPoints(pts, &byKey[k].tail)
		pts = slices.DeleteFunc(pts, func(p Point) bool {
			return !from.IsZero() && p.Time.Before(from) || !to.IsZero() && !p.Time.Before(to)
		})
		if len(pts) > 0 {
			out = append(out, Series{Tags: tags, Points: pts})
		}
	}
	return out
}

// matches reports whether tags carries every entry of match.
func matches(tags, match Tags) bool {
	for k, v := range match {
		if tags[k] != v {
			return false
		}
	}
	return true
}

// appendPoints materialises c's points as Point values appended to dst,
// each with a fresh Fields map holding the fields it carries.
func appendPoints(dst []Point, c *columns) []Point {
	for i, ns := range c.times {
		fields := make(map[string]float64, len(c.fields))
		for k, name := range c.fields {
			if c.present[k] == nil || c.present[k][i] {
				fields[name] = c.vals[k][i]
			}
		}
		dst = append(dst, Point{Time: time.Unix(0, ns).UTC(), Fields: fields})
	}
	return dst
}

// insertFields adds a map-form point to a series, interning field names it
// has not seen.
func (sr *series) insertFields(at int64, fields map[string]float64, threshold int) {
	var cols []int
	var vals []float64
	for name, v := range fields {
		cols = append(cols, sr.tail.col(name))
		vals = append(vals, v)
	}
	sr.insertRow(at, cols, vals, threshold)
}

// encodeBlock seals a time-sorted run of points.
func encodeBlock(points []Point) *block {
	var sr series
	for _, p := range points {
		sr.insertFields(p.Time.UnixNano(), p.Fields, 0)
	}
	return encodeColumns(&sr.tail)
}

// decode reconstructs the block's points, appending to dst.
func (b *block) decode(dst []Point) ([]Point, error) {
	var c columns
	if err := b.decodeInto(&c); err != nil {
		return nil, err
	}
	return appendPoints(dst, &c), nil
}
