// Streaming analysis: every kernel consumes measurements through a Cursor,
// one column batch at a time — the columns it names, of at most one log
// block of records — so no analysis needs all records resident at once and
// none pays for a column it does not read. A campaign's RecordLog hands out
// log cursors, whose sealed blocks decode straight into columns;
// NewSliceCursor adapts hand-built records (tests, probes) to the same
// kernels by transposing them.

package analysis

import (
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// Columns is a set of record columns. A kernel passes NextColumns the set it
// reads; a batch's other columns are empty.
type Columns uint8

// The record columns. Tier and direction travel together (one packed byte
// per record in the log).
const (
	ColTime Columns = 1 << iota
	ColServer
	ColRegion
	ColTierDir
	ColMbps
	ColRTT
	ColLoss

	ColAll Columns = 1<<iota - 1
)

// ColumnBatch is a run of consecutive records held column-wise: element i
// of every requested column belongs to record i. The batch and everything
// it references belong to the cursor that returned it; they are read-only
// and valid until the cursor's next call.
type ColumnBatch struct {
	N int // records in the batch

	Times   []int64 // Unix nanoseconds; kernels read them as UTC instants
	Servers []int
	// Regions holds per-record codes into RegionNames, which has no
	// duplicate names. Codes mean nothing across batches: a kernel maps a
	// batch's table into its own once per batch, not a string per record.
	Regions     []int32
	RegionNames []string
	Tiers       []bgp.Tier
	Dirs        []netsim.Direction
	Mbps        []float64
	RTTms       []float64
	Loss        []float64
}

// column returns col resliced to n elements when wanted (reallocated only
// if its capacity is short) and emptied otherwise, so that reading a column
// that was not asked for fails loudly instead of returning stale values.
func column[T any](col []T, n int, wanted bool) []T {
	switch {
	case !wanted:
		return col[:0]
	case cap(col) < n:
		return make([]T, n)
	}
	return col[:n]
}

// size makes b a batch of n records with the need columns allocated.
func (b *ColumnBatch) size(n int, need Columns) {
	b.N = n
	b.Times = column(b.Times, n, need&ColTime != 0)
	b.Servers = column(b.Servers, n, need&ColServer != 0)
	b.Regions = column(b.Regions, n, need&ColRegion != 0)
	b.Tiers = column(b.Tiers, n, need&ColTierDir != 0)
	b.Dirs = column(b.Dirs, n, need&ColTierDir != 0)
	b.Mbps = column(b.Mbps, n, need&ColMbps != 0)
	b.RTTms = column(b.RTTms, n, need&ColRTT != 0)
	b.Loss = column(b.Loss, n, need&ColLoss != 0)
}

// transpose fills b with the need columns of ms, coding region names
// through regions (which grows by the names it has not seen).
func (b *ColumnBatch) transpose(ms []Measurement, need Columns, regions *regionTable) {
	b.size(len(ms), need)
	// One pass over the records, not one per column: a record is read once.
	for i := range ms {
		m := &ms[i]
		if need&ColTime != 0 {
			b.Times[i] = m.Time.UnixNano()
		}
		if need&ColServer != 0 {
			b.Servers[i] = m.ServerID
		}
		if need&ColRegion != 0 {
			b.Regions[i] = regions.intern(m.Region)
		}
		if need&ColTierDir != 0 {
			b.Tiers[i], b.Dirs[i] = m.Tier, m.Dir
		}
		if need&ColMbps != 0 {
			b.Mbps[i] = m.Mbps
		}
		if need&ColRTT != 0 {
			b.RTTms[i] = m.RTTms
		}
		if need&ColLoss != 0 {
			b.Loss[i] = m.Loss
		}
	}
	b.RegionNames = regions.names
}

// record gathers record i of a batch that holds every column.
func (b *ColumnBatch) record(i int) Measurement {
	return Measurement{
		ServerID: b.Servers[i],
		Region:   b.RegionNames[b.Regions[i]],
		Tier:     b.Tiers[i],
		Dir:      b.Dirs[i],
		Time:     time.Unix(0, b.Times[i]).UTC(),
		Mbps:     b.Mbps[i],
		RTTms:    b.RTTms[i],
		Loss:     b.Loss[i],
	}
}

// Cursor yields measurements in a fixed order, one batch at a time.
// NextColumns is the analysis contract: the next batch with the need
// columns filled, nil at end of stream. Next yields the same batches as
// whole records, for consumers that want every field of every record
// (checkpoint replay, probes, tests); it too returns nil at end of stream.
// Either result is valid only until the next call on the cursor and must be
// treated as read-only. Reset rewinds to the start, replaying the identical
// sequence; no kernel needs it — each reads its stream once.
//
// A cursor may cover one range of a longer stream: RecordLog.Cursors splits
// a log into contiguous block ranges, and a range cursor's start is its
// range's first block. The range kernel (GroupSeriesWithServerRanges)
// stages each range on its own worker and merges the stages in range
// order, which rebuilds the one-cursor sequence exactly; so its results —
// and every byte rendered from them — cannot depend on how many ranges
// there are.
//
// A Cursor is single-goroutine; concurrent readers each open their own
// (RecordLog.Cursor, RecordLog.Cursors, NewSliceCursor are cheap).
type Cursor interface {
	Next() []Measurement
	NextColumns(need Columns) *ColumnBatch
	Reset()
}

// SliceCursor adapts an in-memory record slice to the Cursor interface. It
// is an adapter, not a fast path: the kernels read columns, so the records
// are transposed a log block's worth at a time into scratch the cursor
// reuses, which costs a pass over the needed fields that a log cursor's
// decode does not.
type SliceCursor struct {
	ms      []Measurement
	pos     int
	regions regionTable
	cols    ColumnBatch
}

// NewSliceCursor returns a cursor over ms. The slice is not copied.
func NewSliceCursor(ms []Measurement) *SliceCursor {
	return &SliceCursor{ms: ms}
}

// Next returns every record not yet delivered as one batch, nil after.
func (c *SliceCursor) Next() []Measurement {
	if c.pos >= len(c.ms) {
		return nil
	}
	rest := c.ms[c.pos:]
	c.pos = len(c.ms)
	return rest
}

// NextColumns transposes the next logBlockSize records, nil at the end.
func (c *SliceCursor) NextColumns(need Columns) *ColumnBatch {
	if c.pos >= len(c.ms) {
		return nil
	}
	chunk := c.ms[c.pos:min(c.pos+logBlockSize, len(c.ms))]
	c.pos += len(chunk)
	c.cols.transpose(chunk, need, &c.regions)
	obsRecordsScanned.Add(uint64(len(chunk)))
	return &c.cols
}

// Reset rewinds the cursor.
func (c *SliceCursor) Reset() { c.pos = 0 }
