// RecordLog is the storage for a campaign's raw measurement records: an
// append-only columnar log that compresses Measurements ~4-5x against the
// struct (delta-of-delta times, zigzag-delta server IDs, interned regions,
// XOR float columns — internal/colenc, the same codecs as tsdb's sealed
// blocks). Its sealed blocks stay resident by default and can spill to an
// unlinked temp file. Spill bounds the log's own resident bytes — the
// unsealed tail plus one block per open cursor — not the campaign's: the
// download views analyses group from the log are uncompressed and grow
// with the record count, and a budget governs them separately (the
// engine's view allowance in internal/core). Decode is lossless: a cursor
// replays the exact append sequence (pinned by TestRecordLogRoundTrip).

package analysis

import (
	"bytes"
	"fmt"
	"os"
	"slices"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/colenc"
	"github.com/clasp-measurement/clasp/internal/netsim"
)

// logBlockSize is the records-per-block granularity: one block is the unit
// of compression, of spill I/O, and of cursor batches — the peak streaming
// footprint per reader.
const logBlockSize = 4096

type logBlock struct {
	n    int
	data []byte // nil once spilled
	off  int64  // offset in the spill file, valid when data is nil
	size int64
}

// RecordLog accumulates measurements in append order. Append is
// single-writer (the orchestrator's sink goroutine); cursors may be opened
// concurrently once appending is done. Spill moves sealed block payloads
// into an anonymous temp file (created then immediately removed, so the
// space is reclaimed when the process exits no matter how).
type RecordLog struct {
	regions   []string
	regionIdx map[string]int

	blocks []logBlock
	tail   []Measurement

	count    int
	firstRec Measurement
	lastRec  Measurement // the last record of the last sealed block
	spill    *os.File
	spilled  bool

	// Encode scratch, reused across seals and serialisation passes (the
	// tail is re-encoded at every checkpoint commit).
	encBuf   []byte
	encTimes []int64
	encVals  []float64
}

// NewRecordLog returns an empty log.
func NewRecordLog() *RecordLog {
	return &RecordLog{regionIdx: make(map[string]int)}
}

// Append adds one record. Not safe for concurrent use, and must not be
// called after Spill.
func (l *RecordLog) Append(m Measurement) {
	if l.spilled {
		panic("analysis: RecordLog.Append after Spill")
	}
	if l.count == 0 {
		l.firstRec = m
	}
	l.count++
	l.tail = append(l.tail, m)
	if len(l.tail) >= logBlockSize {
		l.sealTail()
	}
}

// Len returns the number of records appended.
func (l *RecordLog) Len() int { return l.count }

// First returns the first appended record (zero value when empty).
func (l *RecordLog) First() Measurement { return l.firstRec }

// Last returns the last appended record (zero value when empty): the
// tail's last, or the last sealed block's when the tail is empty.
func (l *RecordLog) Last() Measurement {
	if n := len(l.tail); n > 0 {
		return l.tail[n-1]
	}
	return l.lastRec
}

// CompressedBytes returns the encoded size of all sealed blocks, wherever
// they live (memory or spill file).
func (l *RecordLog) CompressedBytes() int {
	n := 0
	for i := range l.blocks {
		n += int(l.blocks[i].size)
	}
	return n
}

// Spill seals the tail and moves every block payload into an unlinked temp
// file under dir (""+os.TempDir() semantics of os.CreateTemp). After Spill
// the log is read-only; cursors read blocks back with ReadAt, so any
// number may run concurrently. Close releases the file descriptor.
func (l *RecordLog) Spill(dir string) error {
	if l.spilled {
		return nil
	}
	if len(l.tail) > 0 {
		l.sealTail()
	}
	f, err := os.CreateTemp(dir, "clasp-recordlog-*.spill")
	if err != nil {
		return err
	}
	// Unlink immediately: the kernel reclaims the space when the last fd
	// closes, even on crash. The name is gone but ReadAt still works.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return err
	}
	var off int64
	for i := range l.blocks {
		b := &l.blocks[i]
		if _, err := f.WriteAt(b.data, off); err != nil {
			f.Close()
			return err
		}
		b.off = off
		off += b.size
		b.data = nil
	}
	l.spill = f
	l.spilled = true
	obsSpilledBytes.Add(uint64(off))
	return nil
}

// Close releases the spill file, if any. Cursors must not be used after.
func (l *RecordLog) Close() error {
	if l.spill == nil {
		return nil
	}
	err := l.spill.Close()
	l.spill = nil
	return err
}

func (l *RecordLog) internRegion(r string) int {
	if i, ok := l.regionIdx[r]; ok {
		return i
	}
	i := len(l.regions)
	l.regions = append(l.regions, r)
	l.regionIdx[r] = i
	return i
}

// sealTail compresses the tail into one block.
func (l *RecordLog) sealTail() {
	// An exact-size copy out of the scratch: a resident block holds its
	// bytes and no spare capacity.
	data := bytes.Clone(l.encodeRecords(l.tail, l.internRegion))
	l.blocks = append(l.blocks, logBlock{n: len(l.tail), data: data, size: int64(len(data))})
	l.lastRec = l.tail[len(l.tail)-1]
	l.tail = l.tail[:0]
}

// encodeRecords compresses one batch of records into block form, interning
// regions through the supplied function. sealTail uses it against the log's
// own table; EncodeTail uses it with an extension of that table, so
// encoding a snapshot never grows the live one. The result is the log's
// encode scratch, valid until the next call. Column order: times, server
// IDs, region codes, tier/dir, mbps, rtt, loss. Only the three float
// columns carry a length; the varint columns before them are delimited by
// the block's record count.
func (l *RecordLog) encodeRecords(ms []Measurement, internRegion func(string) int) []byte {
	n := len(ms)
	buf := l.encBuf[:0]
	l.encTimes = column(l.encTimes, n, true)
	for i := range ms {
		l.encTimes[i] = ms[i].Time.UnixNano()
	}
	buf = colenc.AppendTimes(buf, l.encTimes)
	prev := int64(0)
	for i := range ms {
		id := int64(ms[i].ServerID)
		buf = colenc.AppendVarint(buf, id-prev)
		prev = id
	}
	for i := range ms {
		buf = colenc.AppendUvarint(buf, uint64(internRegion(ms[i].Region)))
	}
	// Tier and direction are tiny enums; the common case packs both into
	// one byte per record (flag 1). Out-of-range values fall back to two
	// zigzag varint columns (flag 0), keeping the log lossless for any int.
	packable := true
	for i := range ms {
		if t, d := int64(ms[i].Tier), int64(ms[i].Dir); t < 0 || t > 15 || d < 0 || d > 15 {
			packable = false
			break
		}
	}
	if packable {
		buf = append(buf, 1)
		for i := range ms {
			buf = append(buf, byte(ms[i].Tier)<<4|byte(ms[i].Dir))
		}
	} else {
		buf = append(buf, 0)
		for i := range ms {
			buf = colenc.AppendVarint(buf, int64(ms[i].Tier))
		}
		for i := range ms {
			buf = colenc.AppendVarint(buf, int64(ms[i].Dir))
		}
	}
	l.encVals = column(l.encVals, n, true)
	vals := l.encVals
	for i := range ms {
		vals[i] = ms[i].Mbps
	}
	buf = colenc.AppendFloats(buf, vals)
	for i := range ms {
		vals[i] = ms[i].RTTms
	}
	buf = colenc.AppendFloats(buf, vals)
	for i := range ms {
		vals[i] = ms[i].Loss
	}
	l.encBuf = colenc.AppendFloats(buf, vals)
	return l.encBuf
}

// decodeColumns is the log's one block decoder: it reconstructs the need
// columns of a block of n records into b, whose buffers it reuses. What
// need buys is the float columns: each sits behind its byte length and one
// outside need is stepped over in O(1). The varint columns carry no length
// and are walked either way — outside need they are just not kept. The
// walks decode the common widths inline (a one-byte region code, a one- or
// two-byte server delta; the times column's one-byte second differences in
// colenc.DecodeTimes) and hand anything longer to colenc.Uvarint, so an
// error is the one the plain walk reports, at the same record
// (FuzzDecodeColumns holds the two walks equal). No framing check depends on
// need: a truncated column, a region code outside the log's table, a bad
// tier/dir flag and trailing bytes are errors whether the column they sit
// in was asked for or not. (What a skipped float column does not get is the
// check that its bit stream holds n values; ReadFrames validates with
// every column.) n, which must not be negative, is trusted only as far as
// the bytes back it: DecodeTimes rejects an n beyond the block's length —
// every record takes a byte or more — before any buffer is sized from n.
// After an error b holds nothing usable.
func (l *RecordLog) decodeColumns(data []byte, n int, need Columns, b *ColumnBatch) error {
	var k int
	var err error
	if b.Times, k, err = colenc.DecodeTimes(b.Times, data, n); err != nil {
		return err
	}
	data = data[k:]
	b.size(n, need) // keeps the n times, or empties them
	b.RegionNames = l.regions

	// Records are hour-major, so a server delta leaves the one-byte zigzag
	// range often: about half of a paper-scale campaign's are two bytes.
	prev, off := int64(0), 0
	for i := 0; i < n; i++ {
		var u uint64
		if off < len(data) && data[off] < 0x80 {
			u = uint64(data[off])
			off++
		} else if off+1 < len(data) && data[off+1] < 0x80 {
			u = uint64(data[off]&0x7f) | uint64(data[off+1])<<7
			off += 2
		} else if u, k = colenc.Uvarint(data[off:]); k == 0 {
			return fmt.Errorf("truncated server column")
		} else {
			off += k
		}
		prev += colenc.Unzigzag(u)
		if need&ColServer != 0 {
			b.Servers[i] = int(prev)
		}
	}
	regions := uint64(len(l.regions))
	for i := 0; i < n; i++ {
		var ri uint64
		if off < len(data) && data[off] < 0x80 {
			ri = uint64(data[off])
			off++
		} else if ri, k = colenc.Uvarint(data[off:]); k == 0 {
			return fmt.Errorf("bad region index")
		} else {
			off += k
		}
		if ri >= regions {
			return fmt.Errorf("bad region index")
		}
		if need&ColRegion != 0 {
			b.Regions[i] = int32(ri)
		}
	}
	data = data[off:]
	if len(data) == 0 {
		return fmt.Errorf("truncated tier/dir flag")
	}
	packed := data[0]
	data = data[1:]
	switch packed {
	case 1:
		if len(data) < n {
			return fmt.Errorf("truncated packed tier/dir column")
		}
		if need&ColTierDir != 0 {
			for i, td := range data[:n] {
				b.Tiers[i] = bgp.Tier(td >> 4)
				b.Dirs[i] = netsim.Direction(td & 0xf)
			}
		}
		data = data[n:]
	case 0:
		for i := 0; i < n; i++ {
			v, k := colenc.Varint(data)
			if k == 0 {
				return fmt.Errorf("truncated tier column")
			}
			data = data[k:]
			if need&ColTierDir != 0 {
				b.Tiers[i] = bgp.Tier(v)
			}
		}
		for i := 0; i < n; i++ {
			v, k := colenc.Varint(data)
			if k == 0 {
				return fmt.Errorf("truncated dir column")
			}
			data = data[k:]
			if need&ColTierDir != 0 {
				b.Dirs[i] = netsim.Direction(v)
			}
		}
	default:
		return fmt.Errorf("bad tier/dir flag %d", packed)
	}
	for _, col := range [...]struct {
		bit  Columns
		vals *[]float64
	}{{ColMbps, &b.Mbps}, {ColRTT, &b.RTTms}, {ColLoss, &b.Loss}} {
		if need&col.bit != 0 {
			*col.vals, k, err = colenc.DecodeFloats(*col.vals, data, n)
		} else {
			k, err = colenc.SkipFloats(data)
		}
		if err != nil {
			return err
		}
		data = data[k:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%d trailing bytes", len(data))
	}
	return nil
}

// Cursor returns a new cursor over the whole log, replaying records in
// append order one block at a time: Cursors(1)'s one range. Each cursor owns
// its scratch, so independent cursors (ParallelFor workers, repeated
// artifact renders) can run concurrently once appending is done.
func (l *RecordLog) Cursor() Cursor { return &logCursor{l: l, end: -1} }

// Cursors splits the log into max(1, min(n, SealedBlocks())) cursors over
// contiguous ranges of sealed blocks, in log order, sized to within a block
// of each other; the last range also owns the unsealed tail. Read one after
// another they deliver exactly the batches of Cursor, so a kernel that scans
// each range on its own worker and concatenates what the ranges staged in
// range order has seen the one-cursor sequence — which is why nothing a
// kernel returns can depend on n. Reset rewinds a range cursor to its own
// first block.
func (l *RecordLog) Cursors(n int) []Cursor {
	blocks := len(l.blocks)
	n = max(1, min(n, blocks))
	cs := make([]Cursor, n)
	for i := range cs {
		c := &logCursor{l: l, start: i * blocks / n, end: (i + 1) * blocks / n}
		if i == n-1 {
			c.end = -1
		}
		c.next = c.start
		cs[i] = c
	}
	return cs
}

// logCursor feeds the decoder's columns to the kernels: a sealed block is
// decoded straight into the cursor's batch, the unsealed tail is transposed
// into it. The batch, the spill read buffer and the record slice Next
// gathers into are the cursor's whole footprint, reused block after block.
type logCursor struct {
	l *RecordLog
	// The blocks [start, end) are the cursor's range; end < 0 runs through
	// the log's last sealed block and then its tail.
	start, end  int
	next        int // block index; len(blocks) = tail (of the range that owns it), beyond = EOF
	cols        ColumnBatch
	tailRegions regionTable // codes of the tail's batch: the log's table plus names only the tail has seen
	readBuf     []byte
	batch       []Measurement
}

// atTail reports whether the cursor's next batch is the log's tail.
func (c *logCursor) atTail() bool { return c.end < 0 && c.next == len(c.l.blocks) }

// NextColumns returns the need columns of the next block of records; the
// batch is only valid until the following call on the cursor. A corrupt or
// unreadable spill block panics: the log wrote these bytes itself moments
// ago, so damage means the environment is failing and silent truncation of
// results would be worse.
func (c *logCursor) NextColumns(need Columns) *ColumnBatch {
	l := c.l
	if c.atTail() {
		c.next++
		if len(l.tail) == 0 {
			return nil
		}
		if c.tailRegions.names == nil {
			// Clipped, so a name the tail adds reallocates instead of
			// writing into the log's own table.
			c.tailRegions.names = slices.Clip(l.regions)
		}
		c.cols.transpose(l.tail, need, &c.tailRegions)
		obsRecordsScanned.Add(uint64(len(l.tail)))
		return &c.cols
	}
	if c.next >= len(l.blocks) || c.end >= 0 && c.next >= c.end {
		return nil
	}
	b := &l.blocks[c.next]
	c.next++
	data := b.data
	if data == nil {
		var err error
		if data, err = l.readSpilled(b, &c.readBuf); err != nil {
			panic(err.Error())
		}
	}
	if err := l.decodeColumns(data, b.n, need, &c.cols); err != nil {
		panic(fmt.Sprintf("analysis: record log corrupt: %v", err))
	}
	obsRecordsScanned.Add(uint64(b.n))
	return &c.cols
}

// Next returns the next block as records: a gather over every column of a
// sealed block, the tail itself for the last batch.
func (c *logCursor) Next() []Measurement {
	if c.atTail() && len(c.l.tail) > 0 {
		c.next++
		return c.l.tail
	}
	cols := c.NextColumns(ColAll)
	if cols == nil {
		return nil
	}
	c.batch = c.batch[:0]
	for i := 0; i < cols.N; i++ {
		c.batch = append(c.batch, cols.record(i))
	}
	return c.batch
}

// Reset rewinds the cursor to the first record of its range.
func (c *logCursor) Reset() { c.next = c.start }

// readSpilled reads a spilled block's payload back into *scratch, grown as
// needed, and returns it.
func (l *RecordLog) readSpilled(b *logBlock, scratch *[]byte) ([]byte, error) {
	if cap(*scratch) < int(b.size) {
		*scratch = make([]byte, b.size)
	}
	*scratch = (*scratch)[:b.size]
	if _, err := l.spill.ReadAt(*scratch, b.off); err != nil {
		return nil, fmt.Errorf("analysis: record log spill read: %w", err)
	}
	return *scratch, nil
}

// The record log on disk, CLRL0002, the campaign checkpoint's append-only
// records sidecar:
//
//	header  8-byte magic "CLRL0002"
//	frames  one per sealed block, in seal order, each of logBlockSize
//	        records: uvarint record count, uvarint payload length,
//	        payload (encodeRecords)
//
// A sealed block never changes, so a checkpoint appends the frames sealed
// since its last commit and rewrites nothing. The region table and the
// unsealed tail (EncodeTail) are kept beside the file, by the caller.
const FramesMagic = "CLRL0002"

// SealedBlocks returns how many blocks the log has sealed.
func (l *RecordLog) SealedBlocks() int { return len(l.blocks) }

// AppendFrames appends the frames of sealed blocks [from, to) to buf and
// returns the extended buffer; a spilled block is read back from disk.
func (l *RecordLog) AppendFrames(buf []byte, from, to int) ([]byte, error) {
	var scratch []byte
	for i := from; i < to; i++ {
		b := &l.blocks[i]
		data := b.data
		if data == nil {
			var err error
			if data, err = l.readSpilled(b, &scratch); err != nil {
				return buf, err
			}
		}
		buf = colenc.AppendUvarint(buf, uint64(b.n))
		buf = colenc.AppendUvarint(buf, uint64(len(data)))
		buf = append(buf, data...)
	}
	return buf, nil
}

// EncodeTail encodes the unsealed tail of n records as one block payload,
// and returns it with the region table it is coded against: the log's own,
// extended by the names only the tail has seen in the order the tail first
// names them, which is the order sealing it will intern them. The live
// table does not grow. data is the log's encode scratch and regions may
// share the live table's array: both are valid until the next call on the
// log.
func (l *RecordLog) EncodeTail() (regions []string, n int, data []byte) {
	if len(l.tail) == 0 {
		return l.regions, 0, nil
	}
	// Clipped, so a name the tail adds reallocates instead of writing into
	// the log's own table.
	ext := regionTable{names: slices.Clip(l.regions)}
	data = l.encodeRecords(l.tail, func(r string) int { return int(ext.intern(r)) })
	return ext.names, len(l.tail), data
}

// ReadFrames rebuilds a log from a CLRL0002 file — its magic and whole
// frames, each a full block — whose blocks are coded against regions, plus
// the tail of tailN records EncodeTail gave beside it, which goes back into
// the log's tail. The blocks stay sealed as read, byte for byte, and blocks
// seal at fixed logBlockSize-record boundaries, so a campaign that goes on
// appending seals the blocks an uninterrupted run seals; the region table
// already holds, in order, the names the tail adds when it seals. Every
// block and the tail are decoded with every column, and every count is
// checked against the bytes that could back it before anything is sized
// from it.
func ReadFrames(file []byte, regions []string, tailN int, tail []byte) (*RecordLog, error) {
	if len(file) < len(FramesMagic) || string(file[:len(FramesMagic)]) != FramesMagic {
		return nil, fmt.Errorf("analysis: bad record log magic")
	}
	l := NewRecordLog()
	for i, r := range regions {
		if l.internRegion(r) != i {
			return nil, fmt.Errorf("analysis: record log region %d repeats an earlier one", i)
		}
	}
	var cols ColumnBatch
	for raw := file[len(FramesMagic):]; len(raw) > 0; {
		i := len(l.blocks)
		n, k := colenc.Uvarint(raw)
		if k == 0 {
			return nil, fmt.Errorf("analysis: record log block %d: truncated header", i)
		}
		raw = raw[k:]
		dl, k := colenc.Uvarint(raw)
		if k == 0 || uint64(len(raw)-k) < dl {
			return nil, fmt.Errorf("analysis: record log block %d: truncated data", i)
		}
		data := raw[k : k+int(dl)]
		raw = raw[k+int(dl):]
		// A record costs a byte or more in the times column alone.
		if n != logBlockSize || dl < n {
			return nil, fmt.Errorf("analysis: sealed record log block %d claims %d records in %d bytes, want %d", i, n, dl, logBlockSize)
		}
		if err := l.decodeColumns(data, logBlockSize, ColAll, &cols); err != nil {
			return nil, fmt.Errorf("analysis: record log block %d: %w", i, err)
		}
		if i == 0 {
			l.firstRec = cols.record(0)
		}
		l.lastRec = cols.record(logBlockSize - 1)
		l.count += logBlockSize
		l.blocks = append(l.blocks, logBlock{n: logBlockSize, data: data, size: int64(len(data))})
	}
	// A tail is short of a block, and a record costs a byte or more.
	if tailN < 0 || tailN >= logBlockSize || tailN == 0 && len(tail) > 0 || tailN > len(tail) {
		return nil, fmt.Errorf("analysis: record log tail of %d records in %d bytes", tailN, len(tail))
	}
	if tailN > 0 {
		if err := l.decodeColumns(tail, tailN, ColAll, &cols); err != nil {
			return nil, fmt.Errorf("analysis: record log tail: %w", err)
		}
		for j := 0; j < tailN; j++ {
			l.Append(cols.record(j))
		}
	}
	return l, nil
}
