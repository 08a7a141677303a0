// Streaming analysis: every grouping kernel consumes measurements through
// a Cursor — batches of records delivered block-at-a-time — so no analysis
// needs all records resident at once. A campaign's RecordLog hands out log
// cursors; NewSliceCursor adapts hand-built records (tests, probes) to the
// same kernels.

package analysis

// Cursor yields measurements in a fixed order, one batch at a time. Next
// returns nil at end of stream; a returned batch is only valid until the
// next Next or Reset call and must be treated as read-only. Reset rewinds
// to the start, replaying the identical sequence — the two-pass kernels
// (PerfPointsCursor) depend on that.
//
// A Cursor is single-goroutine; concurrent readers each open their own
// (RecordLog.Cursor, NewSliceCursor are cheap).
type Cursor interface {
	Next() []Measurement
	Reset()
}

// SliceCursor adapts an in-memory record slice to the Cursor interface as
// one single batch.
type SliceCursor struct {
	ms   []Measurement
	done bool
}

// NewSliceCursor returns a cursor over ms. The slice is not copied.
func NewSliceCursor(ms []Measurement) *SliceCursor {
	return &SliceCursor{ms: ms}
}

// Next returns the whole slice on the first call, nil after.
func (c *SliceCursor) Next() []Measurement {
	if c.done || len(c.ms) == 0 {
		return nil
	}
	c.done = true
	return c.ms
}

// Reset rewinds the cursor.
func (c *SliceCursor) Reset() { c.done = false }

// FilterCursor yields only the records of an underlying cursor that pass
// keep, preserving order. Batches are re-staged in an owned buffer, so the
// peak footprint stays one block regardless of stream length.
type FilterCursor struct {
	c    Cursor
	keep func(*Measurement) bool
	buf  []Measurement
}

// NewFilterCursor wraps c with a filter predicate.
func NewFilterCursor(c Cursor, keep func(*Measurement) bool) *FilterCursor {
	return &FilterCursor{c: c, keep: keep}
}

// Next returns the next non-empty filtered batch, nil at end of stream.
func (f *FilterCursor) Next() []Measurement {
	for {
		batch := f.c.Next()
		if batch == nil {
			return nil
		}
		f.buf = f.buf[:0]
		for i := range batch {
			if f.keep(&batch[i]) {
				f.buf = append(f.buf, batch[i])
			}
		}
		if len(f.buf) > 0 {
			return f.buf
		}
	}
}

// Reset rewinds the underlying cursor.
func (f *FilterCursor) Reset() { f.c.Reset() }
