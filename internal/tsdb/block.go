// Sealed columnar blocks: when a series' mutable tail exceeds the store's
// seal threshold, the tail is frozen into an immutable compressed block —
// delta-of-delta varint timestamps plus one Gorilla XOR float column per
// field (see internal/colenc). The sharded in-memory store stays the write
// head; queries decode blocks on the fly, losslessly.
//
// Sealed-block purity invariant: encode(points) followed by decode is
// bit-identical to the input — timestamps to the nanosecond (normalised to
// UTC) and field values to the IEEE-754 bit pattern, pinned by the
// round-trip property tests and fuzzer in block_test.go. Nothing
// downstream (Query, analysis) can observe whether a series was
// sealed, except through memory use.

package tsdb

import (
	"fmt"
	"slices"

	"github.com/clasp-measurement/clasp/internal/colenc"
)

// DefaultSealThreshold is the tail length at which NewStore seals a series
// into a compressed block. At hourly campaign cadence one block holds ~21
// days of one pair's samples.
const DefaultSealThreshold = 512

// block is one immutable compressed run of points. Blocks of a series are
// time-ordered and non-overlapping: every point in block i+1 is at or
// after every point in block i, and the mutable tail follows the last
// block. All fields are read-only after encodeColumns returns.
type block struct {
	n            int
	minNs, maxNs int64 // UnixNano of first and last point
	data         []byte
}

// Layout of block.data (all integers varint unless noted):
//
//	uvarint pointCount
//	uvarint fieldCount, then fieldCount × (uvarint nameLen, name bytes),
//	  names sorted ascending
//	timestamp column: delta-of-delta zigzag varints (colenc.AppendTimes)
//	fieldCount × field column:
//	  presence byte: 1 = every point carries the field,
//	                 0 = ceil(n/8)-byte bitmap follows (bit 7-i%8 of
//	                     byte i/8 set when point i carries the field)
//	  value column: uvarint byte length + Gorilla XOR bit stream of the
//	                present values in point order (colenc.AppendFloats)

// encodeColumns seals a non-empty time-sorted run of points. The columns are
// only read.
func encodeColumns(c *columns) *block {
	n := c.len()
	b := &block{n: n, minNs: c.times[0], maxNs: c.times[n-1]}
	fields := c.sortedFields()

	buf := make([]byte, 0, 16*n/4+64)
	buf = colenc.AppendUvarint(buf, uint64(n))
	buf = colenc.AppendUvarint(buf, uint64(len(fields)))
	for _, k := range fields {
		buf = colenc.AppendUvarint(buf, uint64(len(c.fields[k])))
		buf = append(buf, c.fields[k]...)
	}
	buf = colenc.AppendTimes(buf, c.times)
	var sparse []float64 // the present values of a column some points omit
	for _, k := range fields {
		if !slices.Contains(c.present[k], false) {
			buf = append(buf, 1)
			buf = colenc.AppendFloats(buf, c.vals[k])
			continue
		}
		buf = append(buf, 0)
		bitmap := make([]byte, (n+7)/8)
		sparse = sparse[:0]
		for i, ok := range c.present[k] {
			if ok {
				bitmap[i/8] |= 1 << (7 - i%8)
				sparse = append(sparse, c.vals[k][i])
			}
		}
		buf = append(buf, bitmap...)
		buf = colenc.AppendFloats(buf, sparse)
	}
	b.data = buf
	return b
}

// appendPoints decodes the block and appends its points inside r to dst.
// Decoded points carry fresh field maps, so callers own them outright.
// Decode never fails on data produced by encodeColumns; a corrupt buffer
// is reported as an error.
func (b *block) appendPoints(dst []Point, r timeRange) ([]Point, error) {
	var c columns
	if err := b.decodeInto(&c); err != nil {
		return nil, err
	}
	return c.appendPoints(dst, r), nil
}

// decodeInto appends the block's points to c, adding any column c lacks.
// Values decode straight into the columns' spare capacity, so a reused c
// (reset between blocks) decodes without allocating. On error c is left
// with partially appended columns and must be discarded.
func (b *block) decodeInto(c *columns) error {
	buf := b.data
	n64, k := colenc.Uvarint(buf)
	if k == 0 {
		return fmt.Errorf("truncated block header")
	}
	buf = buf[k:]
	n := int(n64)
	if n != b.n {
		return fmt.Errorf("block count mismatch: header %d, index %d", n, b.n)
	}
	fc64, k := colenc.Uvarint(buf)
	if k == 0 {
		return fmt.Errorf("truncated field count")
	}
	buf = buf[k:]
	// Every point and every field costs at least a byte, which bounds what
	// a corrupt header can make the decoder allocate.
	if n64 > uint64(len(buf)) || fc64 > uint64(len(buf)) {
		return fmt.Errorf("block header claims %d points of %d fields in %d bytes", n64, fc64, len(buf))
	}
	base := c.len()
	var colBuf [8]int
	cols := colBuf[:0]
	for i := 0; i < int(fc64); i++ {
		ln, k := colenc.Uvarint(buf)
		if k == 0 || uint64(len(buf)-k) < ln {
			return fmt.Errorf("truncated field name")
		}
		name := buf[k : k+int(ln)]
		buf = buf[k+int(ln):]
		// Compare as bytes first: a column c already has costs no string
		// allocation.
		col := -1
		for j, f := range c.fields {
			if f == string(name) {
				col = j
				break
			}
		}
		if col < 0 {
			col = c.col(string(name))
		}
		cols = append(cols, col)
	}
	var filledBuf [8]bool
	filled := append(filledBuf[:0], make([]bool, len(c.fields))...)
	for _, col := range cols {
		if filled[col] {
			return fmt.Errorf("duplicate field %q", c.fields[col])
		}
		filled[col] = true
	}
	c.padAbsent(n, filled)

	c.times = slices.Grow(c.times, n)
	ts, k, err := colenc.DecodeTimes(c.times[base:base], buf, n)
	if err != nil {
		return err
	}
	c.times = c.times[:base+len(ts)]
	buf = buf[k:]

	for _, col := range cols {
		f := c.fields[col]
		if len(buf) == 0 {
			return fmt.Errorf("truncated presence flag for %q", f)
		}
		flag := buf[0]
		buf = buf[1:]
		var bitmap []byte
		count := n
		switch flag {
		case 1:
		case 0:
			bl := (n + 7) / 8
			if len(buf) < bl {
				return fmt.Errorf("truncated presence bitmap for %q", f)
			}
			bitmap = buf[:bl]
			buf = buf[bl:]
			count = 0
			for i := 0; i < n; i++ {
				if bitmap[i/8]&(1<<(7-i%8)) != 0 {
					count++
				}
			}
		default:
			return fmt.Errorf("bad presence flag %d for %q", flag, f)
		}
		// The present values decode packed at the front of the new rows;
		// a sparse column then spreads them back to front, so no value is
		// overwritten before it has moved.
		c.vals[col] = slices.Grow(c.vals[col], n)[:base+n]
		vals := c.vals[col][base:]
		if _, k, err = colenc.DecodeFloats(vals[:0], buf, count); err != nil {
			return err
		}
		buf = buf[k:]
		if bitmap == nil {
			if c.present[col] != nil {
				for i := 0; i < n; i++ {
					c.present[col] = append(c.present[col], true)
				}
			}
			continue
		}
		c.omit(col, base)
		c.present[col] = slices.Grow(c.present[col], n)[:base+n]
		present := c.present[col][base:]
		vi := count
		for i := n - 1; i >= 0; i-- {
			present[i] = bitmap[i/8]&(1<<(7-i%8)) != 0
			if present[i] {
				vi--
				vals[i] = vals[vi]
			} else {
				vals[i] = 0
			}
		}
	}
	if len(buf) != 0 {
		return fmt.Errorf("%d trailing bytes after block", len(buf))
	}
	return nil
}

// --- Series seal/reopen --------------------------------------------------------

// sealedPoints returns the number of points held in sealed blocks.
func (sr *series) sealedPoints() int {
	n := 0
	for _, b := range sr.blocks {
		n += b.n
	}
	return n
}

// seal freezes the entire tail into one compressed block. Callers hold the
// owning shard's write lock and guarantee a non-empty tail.
func (sr *series) seal() {
	sr.blocks = append(sr.blocks, encodeColumns(&sr.tail))
	sr.tail.reset()
}

// reopen decodes every sealed block back into the mutable tail — the rare
// path taken when a point arrives before the sealed range (out-of-order
// ingest across a seal boundary). Blocks are ordered and the tail follows
// them, so concatenation preserves time order.
func (sr *series) reopen() {
	old := sr.tail
	n := sr.sealedPoints() + old.len()
	sr.tail = columns{
		fields:  old.fields,
		times:   make([]int64, 0, n),
		vals:    make([][]float64, len(old.fields)),
		present: make([][]bool, len(old.fields)),
	}
	for _, b := range sr.blocks {
		if err := b.decodeInto(&sr.tail); err != nil {
			panic(fmt.Sprintf("tsdb: corrupt block: %v", err))
		}
	}
	sr.tail.appendColumns(&old)
	sr.blocks = nil
}

// insertRow is the store's one write path: it adds a point to a series that
// may carry sealed blocks. A point older than the sealed range reopens the
// blocks into the tail, once: the series then stays open — however long the
// tail — until a point arrives in time order, so a run of out-of-order
// points costs one decode and one re-seal, not one of each per point. The
// tail is sealed when an in-order append finds it at or past threshold (0
// disables sealing). Callers hold the owning shard's write lock.
func (sr *series) insertRow(at int64, cols []int, vals []float64, threshold int) {
	if n := len(sr.blocks); n > 0 && at < sr.blocks[n-1].maxNs {
		sr.reopen()
	}
	appended := sr.tail.insert(at, cols, vals)
	if appended && threshold > 0 && sr.tail.len() >= threshold {
		sr.seal()
	}
}

// insertRows is insertRow of each row i in turn, where row i carries
// vals[j][i] for column cols[j]. Each maximal run of rows at or after the
// series' last point is appended a column at a time, split where insertRow
// would seal: when an append leaves the tail at threshold or past it — the
// first append already, for a tail a reopen left that long. Every other
// row goes through insertRow. Callers hold the owning shard's write lock.
func (sr *series) insertRows(times []int64, cols []int, vals [][]float64, threshold int) {
	for i := 0; i < len(times); {
		last, ok := sr.lastNs()
		j := i
		for j < len(times) && (!ok || times[j] >= last) {
			last, ok = times[j], true
			j++
		}
		if j == i {
			var rowBuf [8]float64
			row := rowBuf[:0]
			for _, col := range vals {
				row = append(row, col[i])
			}
			sr.insertRow(times[i], cols, row, threshold)
			i++
			continue
		}
		for i < j {
			k := j
			if threshold > 0 {
				k = min(j, i+max(threshold-sr.tail.len(), 1))
			}
			sr.tail.appendRows(times[i:k], cols, vals, i)
			if threshold > 0 && sr.tail.len() >= threshold {
				sr.seal()
			}
			i = k
		}
	}
}

// lastNs returns the time of the series' last point: the tail's last, or
// with an empty tail the last block's end; ok is false for an empty series.
func (sr *series) lastNs() (ns int64, ok bool) {
	if n := sr.tail.len(); n > 0 {
		return sr.tail.times[n-1], true
	}
	if n := len(sr.blocks); n > 0 {
		return sr.blocks[n-1].maxNs, true
	}
	return 0, false
}

// insertFields translates a map-form point onto insertRow, interning field
// names the series has not seen.
func (sr *series) insertFields(at int64, fields map[string]float64, threshold int) {
	var colBuf [8]int
	var valBuf [8]float64
	cols, vals := colBuf[:0], valBuf[:0]
	for name, v := range fields {
		cols = append(cols, sr.tail.col(name))
		vals = append(vals, v)
	}
	sr.insertRow(at, cols, vals, threshold)
}
