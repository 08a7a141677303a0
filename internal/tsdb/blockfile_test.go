package tsdb

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/colenc"
)

// writeBlockFile spills s into dir and opens the result.
func writeBlockFile(t *testing.T, s *Store) *BlockFile {
	t.Helper()
	path := filepath.Join(t.TempDir(), "campaign.clbf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.WriteBlocks(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	bf, err := OpenBlockFile(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bf.Close() })
	return bf
}

// TestBlockFileRoundTrip pins that a spilled store answers queries
// identically to the live one — full range, tag filters, and time bounds
// that cross block boundaries — with a mix of sealed blocks and unsealed
// tails on disk.
func TestBlockFileRoundTrip(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(16) // force several blocks plus a partial tail
	fillStores(t, 500, s)
	bf := writeBlockFile(t, s)

	if bf.SeriesCount() != s.SeriesCount() {
		t.Fatalf("series count %d, want %d", bf.SeriesCount(), s.SeriesCount())
	}

	from := time.Date(2020, 5, 3, 7, 0, 0, 0, time.UTC)
	to := time.Date(2020, 5, 5, 19, 0, 0, 0, time.UTC)
	cases := []struct {
		name     string
		match    Tags
		from, to time.Time
	}{
		{"all", nil, time.Time{}, time.Time{}},
		{"tag", Tags{"server": "b"}, time.Time{}, time.Time{}},
		{"range", nil, from, to},
		{"tag+range", Tags{"server": "a"}, from, to},
		{"no-match", Tags{"server": "zz"}, time.Time{}, time.Time{}},
	}
	for _, tc := range cases {
		want := s.Query("speedtest", tc.match, tc.from, tc.to)
		got, err := bf.Query("speedtest", tc.match, tc.from, tc.to)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: block file query differs from store", tc.name)
		}
	}
	if got, err := bf.Query("absent", nil, time.Time{}, time.Time{}); err != nil || got != nil {
		t.Fatalf("absent measurement: got %v, %v", got, err)
	}
}

// TestBlockFileUnsealedStore pins that WriteBlocks works on a store with
// sealing disabled: every tail becomes one transient block, without
// mutating the store.
func TestBlockFileUnsealedStore(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(0)
	fillStores(t, 120, s)
	bf := writeBlockFile(t, s)
	if b, p, _ := s.BlockStats(); b != 0 || p != 0 {
		t.Fatalf("WriteBlocks mutated the store: %d blocks / %d points", b, p)
	}
	want := s.Query("speedtest", nil, time.Time{}, time.Time{})
	got, err := bf.Query("speedtest", nil, time.Time{}, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("block file query differs from store")
	}
}

func TestBlockFileEmptyStore(t *testing.T) {
	bf := writeBlockFile(t, NewStore())
	if bf.SeriesCount() != 0 {
		t.Fatalf("series count %d, want 0", bf.SeriesCount())
	}
	got, err := bf.Query("speedtest", nil, time.Time{}, time.Time{})
	if err != nil || got != nil {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestBlockFileCorruption pins that a damaged file fails to open or query
// with an error rather than a panic.
func TestBlockFileCorruption(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	fillStores(t, 60, s)
	var buf bytes.Buffer
	if _, err := s.WriteBlocks(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dir := t.TempDir()
	write := func(name string, b []byte) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	if _, err := OpenBlockFile(write("short", raw[:10])); err == nil {
		t.Fatal("truncated file should not open")
	}
	badMagic := append([]byte(nil), raw...)
	badMagic[0] ^= 0xff
	if _, err := OpenBlockFile(write("magic", badMagic)); err == nil {
		t.Fatal("bad magic should not open")
	}
	noTrailer := raw[:len(raw)-4]
	if _, err := OpenBlockFile(write("trailer", noTrailer)); err == nil {
		t.Fatal("bad trailer should not open")
	}
}

// hostileBlockFile is a block file whose counts or lengths lie.
type hostileBlockFile struct {
	name string
	raw  []byte
}

// hostileBlockFiles lies about every count and length a block file
// carries, one per file: TestBlockFileHostileLengths' cases and the seed
// corpus of FuzzOpenBlockFile.
func hostileBlockFiles() []hostileBlockFile {
	uv := colenc.AppendUvarint
	// file assembles the magic, the series sections, an index and the
	// trailer pointing at it.
	file := func(sections, index []byte) []byte {
		b := append([]byte(blockFileMagic), sections...)
		trailer := binary.LittleEndian.AppendUint64(nil, uint64(len(b)))
		return append(append(append(b, index...), trailer...), blockFileMagic...)
	}
	// index lists one series "m" whose section is [off, off+length).
	index := func(off, length uint64) []byte {
		return uv(uv(append(uv(uv(nil, 1), 1), 'm'), off), length)
	}
	// section holds nblocks blocks, the first claiming n points over data.
	section := func(nblocks, n uint64, data []byte) []byte {
		b := colenc.AppendVarint(colenc.AppendVarint(uv(uv(nil, nblocks), n), 0), 0)
		return append(uv(b, uint64(len(data))), data...)
	}
	const start = uint64(len(blockFileMagic))
	var one columns // a valid first block, so the lie is the block count
	one.insert(0, []int{one.col("v")}, []float64{1})
	manyBlocks := section(1<<62, 1, encodeColumns(&one).data)
	manyPoints := section(1, 1<<40, uv(uv(nil, 1<<40), 0))
	return []hostileBlockFile{
		{"series count beyond the index", file(nil, uv(nil, 1<<62))},
		{"section length beyond the file", file(nil, index(start, 1<<62))},
		{"section offset negative after cast", file(nil, index(1<<63, 1))},
		{"section offset plus length wraps", file(nil, index(1<<64-1, 2))},
		{"section runs past the index", file([]byte{1, 2, 3}, index(start, 100))},
		{"section starts inside the magic", file([]byte{1, 2, 3}, index(0, 3))},
		{"block count beyond the section", file(manyBlocks, index(start, uint64(len(manyBlocks))))},
		{"point count beyond the block", file(manyPoints, index(start, uint64(len(manyPoints))))},
	}
}

// openAndQuery opens the block file raw in dir and queries every
// measurement its index names, returning the first error.
func openAndQuery(dir string, raw []byte) error {
	path := filepath.Join(dir, "in.clbf")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}
	bf, err := OpenBlockFile(path)
	if err != nil {
		return err
	}
	defer bf.Close()
	for i := range bf.series {
		if _, err := bf.Query(bf.series[i].measurement, nil, time.Time{}, time.Time{}); err != nil {
			return err
		}
	}
	return nil
}

// TestBlockFileHostileLengths pins that every count and length a block file
// carries is bounded by the bytes that could back it before it sizes an
// allocation or a loop: a file that lies about one is rejected with an error
// — at open for the index, at Query for a section — never with a panic.
func TestBlockFileHostileLengths(t *testing.T) {
	for _, tc := range hostileBlockFiles() {
		if openAndQuery(t.TempDir(), tc.raw) == nil {
			t.Errorf("%s: opened and queried without error", tc.name)
		}
	}
}

// FuzzOpenBlockFile holds the block-file reader to its contract on any
// bytes: opening a file and querying every series it indexes returns data
// or an error, never a panic, and allocates in proportion to the file
// whatever its counts and lengths claim. The checked-in corpus is
// hostileBlockFiles and one real file; tier-1 runs it as a unit test.
func FuzzOpenBlockFile(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		openAndQuery(dir, raw)
		runtime.ReadMemStats(&after)
		// A decoded point (its time and field map) is a few hundred bytes,
		// and a point costs at least a byte of file.
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(blockFileAllocPerByte*len(raw)+64<<10); grew > limit {
			t.Fatalf("allocated %d bytes opening and querying a %d-byte file (limit %d)", grew, len(raw), limit)
		}
	})
}

// blockFileAllocPerByte bounds FuzzOpenBlockFile's allocation per file byte.
const blockFileAllocPerByte = 1024

// TestBlockFilePartialRejection sweeps truncation points over a valid
// block file: no strict prefix — a file cut short by a crash mid-write —
// may open successfully. Together with WriteBlocksFile's atomic rename
// this pins the crash-safety contract: a reader sees either a complete
// file or an open error, never silently partial data.
func TestBlockFilePartialRejection(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(8)
	fillStores(t, 60, s)
	var buf bytes.Buffer
	if _, err := s.WriteBlocks(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	dir := t.TempDir()
	p := filepath.Join(dir, "partial.clbf")
	for cut := 0; cut < len(raw); cut += 7 {
		if err := os.WriteFile(p, raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if bf, err := OpenBlockFile(p); err == nil {
			bf.Close()
			t.Fatalf("file truncated to %d of %d bytes opened without error", cut, len(raw))
		}
	}
}

// TestWriteBlocksFileAtomic pins the crash-safe dump path: the file is
// complete and openable, a second dump replaces it in place, and no temp
// files survive either commit.
func TestWriteBlocksFileAtomic(t *testing.T) {
	s := NewStore()
	s.SetSealThreshold(16)
	fillStores(t, 120, s)
	dir := t.TempDir()
	path := filepath.Join(dir, "telemetry.clbf")
	for i := 0; i < 2; i++ { // second pass overwrites the first dump
		if err := s.WriteBlocksFile(path); err != nil {
			t.Fatal(err)
		}
		bf, err := OpenBlockFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bf.SeriesCount() != s.SeriesCount() {
			t.Fatalf("series count %d, want %d", bf.SeriesCount(), s.SeriesCount())
		}
		bf.Close()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "telemetry.clbf" {
			t.Fatalf("dump left extra files: %v", entries)
		}
	}
}

// TestParseSeriesKey pins the key grammar the index relies on.
func TestParseSeriesKey(t *testing.T) {
	m, tags, err := parseSeriesKey(seriesKey("speedtest", Tags{"b": "2", "a": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	if m != "speedtest" || !reflect.DeepEqual(tags, Tags{"a": "1", "b": "2"}) {
		t.Fatalf("got %q %v", m, tags)
	}
	if _, _, err := parseSeriesKey(",a=1"); err == nil {
		t.Fatal("empty measurement should fail")
	}
	if _, _, err := parseSeriesKey("m,broken"); err == nil {
		t.Fatal("bad tag should fail")
	}
}
