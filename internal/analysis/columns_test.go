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
// CLRL0002 sidecar carries the same bytes, and old checkpoints cross every
// rewrite.
func TestRecordLogFormatGolden(t *testing.T) {
	raw := recordLogV1(t, newLog(t, goldenLogRecords()))
	sum := sha256.Sum256(raw)
	const wantLen, want = 212925, "97511dea240424bc940fab2073cd48bf45191f58837e70efff4429c23fff6b8c"
	if got := hex.EncodeToString(sum[:]); len(raw) != wantLen || got != want {
		t.Fatalf("serialised %d bytes hashing to %s, want %d bytes hashing to %s", len(raw), got, wantLen, want)
	}
}

// TestRecordLogHostileLengths feeds ReadRecordLog files whose counts and
// lengths lie. Each must come back as an error — never a panic, and never
// an allocation out of proportion to the file, whatever the count claims.
func TestRecordLogHostileLengths(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = colenc.AppendUvarint(out, v)
		}
		return out
	}
	file := func(parts ...[]byte) []byte {
		return append([]byte(recordLogMagic), bytes.Join(parts, nil)...)
	}
	l := NewRecordLog()
	valid := bytes.Clone(l.encodeRecords(campaignRecords(50), l.internRegion))
	regions := uv(3, 8)
	regions = append(regions, "us-west1"...)
	regions = append(append(regions, uv(8)...), "us-east1"...)
	regions = append(append(regions, uv(12)...), "europe-west1"...)
	if _, err := ReadRecordLog(bytes.NewReader(file(regions, uv(1, 50, uint64(len(valid))), valid))); err != nil {
		t.Fatalf("the well-formed file the table corrupts does not read: %v", err)
	}

	cases := map[string][]byte{
		// The 30-byte sidecar that panicked checkpoint.Load: a record count
		// of 2^63 turns negative as an int, every loop over it is skipped
		// and the packed tier/dir column is sliced by it.
		"block count 2^63 records":             file(uv(0, 1, 1<<63, 6), []byte{1, 0, 0, 0, 0, 0}),
		"block claims more records than bytes": file(uv(0, 1, 7, 6), []byte{1, 0, 0, 0, 0, 0}),
		"block claims 2^40 records":            file(regions, uv(1, 1<<40, uint64(len(valid))), valid),
		"block claims one record too many":     file(regions, uv(1, 51, uint64(len(valid))), valid),
		"block claims one record too few":      file(regions, uv(1, 49, uint64(len(valid))), valid),
		"block data length past the file":      file(regions, uv(1, 50, uint64(len(valid))+1), valid),
		"block data length 2^63":               file(regions, uv(1, 50, 1<<63), valid),
		"region count 2^63":                    file(uv(1<<63, 0)),
		"region count past the file":           file(uv(200), bytes.Repeat([]byte{0}, 100)),
		"region length 2^63":                   file(uv(1, 1<<63), []byte("us-west1")),
		"region named twice":                   file(uv(2, 1), []byte("a"), uv(1), []byte("a"), uv(0)),
		"block count 2^63":                     file(uv(0, 1<<63)),
		"block count past the file":            file(uv(0, 1000), bytes.Repeat([]byte{0}, 100)),
	}
	// The last float column's length prefix replaced by 2^63, the block's
	// own length adjusted so that only that prefix lies.
	lossAt := 0
	for col := 0; col < 3; col++ {
		lossAt += varintsSize(t, valid[lossAt:], 50)
	}
	lossAt += 1 + 50 // the flag and the packed tier/dir bytes
	for col := 0; col < 2; col++ {
		k, _ := colenc.SkipFloats(valid[lossAt:])
		lossAt += k
	}
	lying := append(bytes.Clone(valid[:lossAt]), uv(1<<63)...)
	cases["float column length 2^63"] = file(regions, uv(1, 50, uint64(len(lying))), lying)
	for cut := len(recordLogMagic); cut < len(valid)+40; cut += 7 {
		whole := file(regions, uv(1, 50, uint64(len(valid))), valid)
		cases[fmt.Sprintf("cut to %d bytes", cut)] = whole[:min(cut, len(whole)-1)]
	}
	for name, raw := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadRecordLog(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: read without error", name)
		}
		// io.ReadAll's own buffer is the 512-byte floor; a decoded column is
		// eight bytes a record and a record is a byte or more of file.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(raw)+4096); grew > limit {
			t.Errorf("%s: allocated %d bytes reading a %d-byte file (limit %d)", name, grew, len(raw), limit)
		}
	}
}
