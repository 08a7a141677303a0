package analysis

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"github.com/clasp-measurement/clasp/internal/colenc"
)

// checkSubset holds the need columns of got to the whole-batch decode want,
// by bit pattern, and the others to being empty.
func checkSubset(t *testing.T, label string, need Columns, got, want *ColumnBatch) {
	t.Helper()
	if got.N != want.N {
		t.Fatalf("%s need %07b: %d records, want %d", label, need, got.N, want.N)
	}
	bitsOf := func(vals []float64) []uint64 {
		out := make([]uint64, len(vals))
		for i, v := range vals {
			out[i] = math.Float64bits(v)
		}
		return out
	}
	regionsOf := func(b *ColumnBatch) []string {
		out := make([]string, len(b.Regions))
		for i, code := range b.Regions {
			out[i] = b.RegionNames[code]
		}
		return out
	}
	for _, col := range []struct {
		bit    Columns
		name   string
		equal  bool
		gotLen int
	}{
		{ColTime, "times", slices.Equal(got.Times, want.Times), len(got.Times)},
		{ColServer, "servers", slices.Equal(got.Servers, want.Servers), len(got.Servers)},
		{ColRegion, "regions", slices.Equal(regionsOf(got), regionsOf(want)), len(got.Regions)},
		{ColTierDir, "tiers", slices.Equal(got.Tiers, want.Tiers), len(got.Tiers)},
		{ColTierDir, "dirs", slices.Equal(got.Dirs, want.Dirs), len(got.Dirs)},
		{ColMbps, "mbps", slices.Equal(bitsOf(got.Mbps), bitsOf(want.Mbps)), len(got.Mbps)},
		{ColRTT, "rtt", slices.Equal(bitsOf(got.RTTms), bitsOf(want.RTTms)), len(got.RTTms)},
		{ColLoss, "loss", slices.Equal(bitsOf(got.Loss), bitsOf(want.Loss)), len(got.Loss)},
	} {
		switch {
		case need&col.bit == 0 && col.gotLen != 0:
			t.Fatalf("%s need %07b: %s was not asked for and holds %d values", label, need, col.name, col.gotLen)
		case need&col.bit != 0 && !col.equal:
			t.Fatalf("%s need %07b: %s differ from the whole decode", label, need, col.name)
		}
	}
}

// subsetShapes are the record batches the column-subset property runs over:
// packed and unpacked tier/dir, several regions, values that stress the
// float codec, a block of one record.
func subsetShapes() map[string][]Measurement {
	unpacked := campaignRecords(300)
	unpacked[17].Tier = 99
	unpacked[23].Dir = -3
	corners := randomMeasurements(5, 257, true)
	corners[3].Mbps, corners[4].RTTms, corners[5].Loss = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
	corners[6].ServerID, corners[7].ServerID = -5, denseServerMax+9
	return map[string][]Measurement{
		"packed":   campaignRecords(700),
		"unpacked": unpacked,
		"corners":  corners,
		"one":      campaignRecords(1),
	}
}

// TestDecodeColumnsSubsets is the column-subset property: under every one
// of the 2^7 column sets, each requested column of a block equals the whole
// decode's and no other column is filled — through the block decoder, the
// tail's transposition and the slice adapter alike, one reused batch each.
func TestDecodeColumnsSubsets(t *testing.T) {
	for name, ms := range subsetShapes() {
		l := NewRecordLog()
		data := bytes.Clone(l.encodeRecords(ms, l.internRegion))
		var want, got ColumnBatch
		if err := l.decodeColumns(data, len(ms), ColAll, &want); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, m := range ms {
			if !measurementsEqual(want.record(i), m) {
				t.Fatalf("%s: record %d drifted through the whole decode", name, i)
			}
		}
		for need := Columns(0); need <= ColAll; need++ {
			if err := l.decodeColumns(data, len(ms), need, &got); err != nil {
				t.Fatalf("%s need %07b: %v", name, need, err)
			}
			checkSubset(t, name+" block", need, &got, &want)
		}

		// The same records as a log's unsealed tail and as a slice.
		tail := newLog(t, ms)
		for need := Columns(0); need <= ColAll; need++ {
			for label, c := range map[string]Cursor{"tail": tail.Cursor(), "slice": NewSliceCursor(ms)} {
				b := c.NextColumns(need)
				if b == nil {
					t.Fatalf("%s %s need %07b: no batch", name, label, need)
				}
				checkSubset(t, name+" "+label, need, b, &want)
				if c.NextColumns(need) != nil {
					t.Fatalf("%s %s need %07b: a second batch", name, label, need)
				}
			}
		}
	}
}

// varintsSize is the size of a column of n varints at the front of data.
func varintsSize(t *testing.T, data []byte, n int) int {
	t.Helper()
	size := 0
	for i := 0; i < n; i++ {
		_, k := colenc.Uvarint(data[size:])
		if k == 0 {
			t.Fatalf("varint %d of %d does not parse", i, n)
		}
		size += k
	}
	return size
}

// TestDecodeColumnsFramingUnderEverySubset corrupts a block's framing every
// way the decoder checks for — cut short at every byte, a region code out
// of the table, a bad tier/dir flag, bytes after the last column — and
// requires the error under every column set: stepping over a column must
// not step over its check.
func TestDecodeColumnsFramingUnderEverySubset(t *testing.T) {
	for name, ms := range subsetShapes() {
		ms = ms[:min(len(ms), 60)] // every cut times every subset: keep the block small
		l := NewRecordLog()
		data := bytes.Clone(l.encodeRecords(ms, l.internRegion))
		n := len(ms)
		var b ColumnBatch
		mustFail := func(what string, l *RecordLog, data []byte) {
			t.Helper()
			for need := Columns(0); need <= ColAll; need++ {
				if err := l.decodeColumns(data, n, need, &b); err == nil {
					t.Fatalf("%s: %s decoded without error under need %07b", name, what, need)
				}
			}
		}
		for cut := 0; cut < len(data); cut++ {
			mustFail(fmt.Sprintf("block cut to %d of %d bytes", cut, len(data)), l, data[:cut])
		}
		mustFail("a trailing byte", l, append(bytes.Clone(data), 0))

		short := NewRecordLog()
		short.regions = l.regions[:len(l.regions)-1]
		mustFail("a region code outside the table", short, data)

		// The flag sits after the three varint columns.
		flagAt := 0
		for col := 0; col < 3; col++ {
			flagAt += varintsSize(t, data[flagAt:], n)
		}
		bad := bytes.Clone(data)
		bad[flagAt] = 7
		mustFail("tier/dir flag 7", l, bad)

		// A varint that runs past ten bytes is malformed in a column that is
		// kept and in one that is not.
		over := append(bytes.Repeat([]byte{0x80}, 10), 0x01)
		mustFail("an overlong timestamp varint", l, append(over, data...))
	}
}

// TestNextColumnsDoesNotAllocate pins the cursor-owned scratch: once a log
// cursor has been over its log — resident or spilled — another pass
// allocates nothing, whatever columns it asks for.
func TestNextColumnsDoesNotAllocate(t *testing.T) {
	ms := campaignRecords(3*logBlockSize + 40)
	resident, spilled := newLog(t, ms), newLog(t, ms)
	if err := spilled.Spill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer spilled.Close()
	for name, l := range map[string]*RecordLog{"resident": resident, "spilled": spilled} {
		c := l.Cursor()
		pass := func(need Columns) int {
			c.Reset()
			n := 0
			for b := c.NextColumns(need); b != nil; b = c.NextColumns(need) {
				n += b.N
			}
			return n
		}
		if got := pass(ColAll); got != len(ms) {
			t.Fatalf("%s: warm pass read %d records, want %d", name, got, len(ms))
		}
		for _, need := range []Columns{ColAll, ColTierDir | ColMbps | ColRTT, ColTime | ColServer | ColRegion | ColTierDir} {
			if allocs := testing.AllocsPerRun(5, func() { pass(need) }); allocs != 0 {
				t.Errorf("%s: a pass over a warmed cursor with need %07b allocates %v times", name, need, allocs)
			}
		}
	}
}

// goldenLogRecords is the fixed vector of the format golden: two sealed
// blocks, the second forced into the unpacked tier/dir form, and a tail
// that names a region no sealed block has.
func goldenLogRecords() []Measurement {
	ms := campaignRecords(10000)
	ms[5000].Tier = 99
	ms[5001].Dir = -3
	ms[9000].Mbps = math.NaN()
	ms[9001].RTTms = math.Inf(-1)
	ms[9002].Loss = math.Copysign(0, -1)
	ms[9500].Region = "asia-east1"
	return ms
}

// TestRecordLogFormatGolden pins the block payloads, frames and tail
// encoding: the hash is of the CLRL0001 file the first writer of that
// format (byte-at-a-time bits, a fresh buffer per column) serialised for
// this vector, rebuilt here from the frame writer and EncodeTail — so the
// CLRL0002 sidecar carries the same bytes across every rewrite.
func TestRecordLogFormatGolden(t *testing.T) {
	raw := recordLogV1(t, newLog(t, goldenLogRecords()))
	sum := sha256.Sum256(raw)
	const wantLen, want = 212925, "97511dea240424bc940fab2073cd48bf45191f58837e70efff4429c23fff6b8c"
	if got := hex.EncodeToString(sum[:]); len(raw) != wantLen || got != want {
		t.Fatalf("serialised %d bytes hashing to %s, want %d bytes hashing to %s", len(raw), got, wantLen, want)
	}
}

// recordLogV1 is l in the CLRL0001 layout the golden hash was first taken
// of, which no program reads or writes any more: the magic, the region
// table as extended by the tail, every sealed block, then the tail as one
// more block. Its frames and payloads are the CLRL0002 ones, so it is built
// from the frame writer and EncodeTail.
func recordLogV1(t *testing.T, l *RecordLog) []byte {
	t.Helper()
	s := snapshot(t, l)
	buf := colenc.AppendUvarint([]byte("CLRL0001"), uint64(len(s.regions)))
	for _, r := range s.regions {
		buf = append(colenc.AppendUvarint(buf, uint64(len(r))), r...)
	}
	nb := l.SealedBlocks()
	if s.tailN > 0 {
		nb++
	}
	buf = colenc.AppendUvarint(buf, uint64(nb))
	buf = append(buf, s.file[len(FramesMagic):]...)
	if s.tailN > 0 {
		buf = colenc.AppendUvarint(colenc.AppendUvarint(buf, uint64(s.tailN)), uint64(len(s.tail)))
		buf = append(buf, s.tail...)
	}
	return buf
}

// lieAboutLoss returns a copy of the block payload of n records with the
// last float column's length prefix replaced by 2^63, so that only that
// prefix lies.
func lieAboutLoss(t *testing.T, payload []byte, n int) []byte {
	t.Helper()
	at := 0
	for col := 0; col < 3; col++ {
		at += varintsSize(t, payload[at:], n)
	}
	at += 1 + n // the flag and the packed tier/dir bytes
	for col := 0; col < 2; col++ {
		k, _ := colenc.SkipFloats(payload[at:])
		at += k
	}
	return colenc.AppendUvarint(bytes.Clone(payload[:at]), 1<<63)
}

// TestRecordLogHostileLengths feeds ReadFrames files and tails whose counts
// and lengths lie. Each must come back as an error — never a panic, and
// never an allocation out of proportion to the bytes, whatever the count
// claims. A frame must hold a full block, so the frame cases lie about a
// block of logBlockSize records and the tail cases about a short one.
func TestRecordLogHostileLengths(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = colenc.AppendUvarint(out, v)
		}
		return out
	}
	file := func(parts ...[]byte) []byte {
		return append([]byte(FramesMagic), bytes.Join(parts, nil)...)
	}
	type input struct {
		file  []byte
		tailN int
		tail  []byte
	}
	l := NewRecordLog()
	block := bytes.Clone(l.encodeRecords(campaignRecords(logBlockSize), l.internRegion))
	tail := bytes.Clone(l.encodeRecords(campaignRecords(50), l.internRegion))
	regions, bl := l.regions, uint64(len(block))
	whole := file(uv(logBlockSize, bl), block)
	if got, err := ReadFrames(whole, regions, 50, tail); err != nil || got.Len() != logBlockSize+50 {
		t.Fatalf("the well-formed file and tail the table corrupts do not read: %v", err)
	}

	lying := lieAboutLoss(t, block, logBlockSize)
	cases := map[string]input{
		// The 30-byte sidecar that panicked checkpoint.Load: a record count
		// of 2^63 turns negative as an int, every loop over it is skipped
		// and the packed tier/dir column is sliced by it.
		"frame claims 2^63 records":            {file: file(uv(1<<63, 6), []byte{1, 0, 0, 0, 0, 0})},
		"frame claims more records than bytes": {file: file(uv(logBlockSize, 6), []byte{1, 0, 0, 0, 0, 0})},
		"frame claims 2^40 records":            {file: file(uv(1<<40, bl), block)},
		"frame claims one record too many":     {file: file(uv(logBlockSize+1, bl), block)},
		"frame claims one record too few":      {file: file(uv(logBlockSize-1, bl), block)},
		"frame data length past the file":      {file: file(uv(logBlockSize, bl+1), block)},
		"frame data length 2^63":               {file: file(uv(logBlockSize, 1<<63), block)},
		"frame float column length 2^63":       {file: file(uv(logBlockSize, uint64(len(lying))), lying)},
		"tail claims more records than bytes":  {file: file(), tailN: 7, tail: []byte{1, 0, 0, 0, 0, 0}},
		"tail claims one record too many":      {file: file(), tailN: 51, tail: tail},
		"tail claims one record too few":       {file: file(), tailN: 49, tail: tail},
		"tail float column length 2^63":        {file: file(), tailN: 50, tail: lieAboutLoss(t, tail, 50)},
	}
	for _, cut := range []int{1, 2, 3, 4, 5, 6, 7, 100, len(block) / 2, len(block) + 3} {
		cases[fmt.Sprintf("frame cut to %d bytes", cut)] = input{file: whole[:len(FramesMagic)+cut]}
	}
	for cut := 0; cut < len(tail); cut += 7 {
		cases[fmt.Sprintf("tail cut to %d bytes", cut)] = input{file: file(), tailN: 50, tail: tail[:cut]}
	}
	for name, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadFrames(c.file, regions, c.tailN, c.tail)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: read without error", name)
		}
		// A decoded column is eight bytes a record and a record is a byte
		// or more of input.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*(len(c.file)+len(c.tail))+4096); grew > limit {
			t.Errorf("%s: allocated %d bytes reading %d + %d bytes (limit %d)", name, grew, len(c.file), len(c.tail), limit)
		}
	}
}
