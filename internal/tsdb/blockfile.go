// On-disk block file format: a campaign's sealed store spills to a single
// file that can be re-opened and queried per series without decoding the
// rest. Layout (all integers varint unless noted):
//
//	header   8-byte magic "CLBF0001"
//	body     one section per series, at the offset its index entry records:
//	           uvarint blockCount, then per block:
//	             uvarint pointCount, varint minNs, varint maxNs,
//	             uvarint dataLen, data (block.data, see block.go)
//	index    uvarint seriesCount, then per series (sorted by key):
//	           uvarint keyLen, key bytes, uvarint offset, uvarint length
//	trailer  8-byte little-endian index offset + the magic again
//
// The series key is the store's own (measurement + canonical ",k=v" tags),
// so the index alone recovers measurement and tags: Query matches against
// parsed keys and reads only the matching sections via ReadAt.

package tsdb

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/clasp-measurement/clasp/internal/colenc"
)

const blockFileMagic = "CLBF0001"

// countWriter tracks the byte offset of a streamed write.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteBlocks serialises the store in the block file format. Tails that
// have not reached the seal threshold are encoded into transient blocks on
// the fly without mutating the store. The snapshot is taken shard by shard:
// each series is internally consistent and the output is a valid store
// state, but series on different shards may be captured at slightly
// different instants when inserts run concurrently. Returns the bytes
// written.
func (s *Store) WriteBlocks(w io.Writer) (int64, error) {
	snaps := s.snapshotSeries()
	cw := &countWriter{w: w}
	if _, err := io.WriteString(cw, blockFileMagic); err != nil {
		return cw.n, err
	}
	type entry struct {
		key    string
		off    int64
		length int64
	}
	entries := make([]entry, 0, len(snaps))
	var buf []byte
	for _, snap := range snaps {
		blocks := snap.blocks
		if snap.tail.len() > 0 {
			blocks = append(blocks, encodeColumns(&snap.tail)) // the snapshot owns its blocks slice
		}
		if len(blocks) == 0 {
			continue
		}
		off := cw.n
		buf = colenc.AppendUvarint(buf[:0], uint64(len(blocks)))
		for _, b := range blocks {
			buf = colenc.AppendUvarint(buf, uint64(b.n))
			buf = colenc.AppendVarint(buf, b.minNs)
			buf = colenc.AppendVarint(buf, b.maxNs)
			buf = colenc.AppendUvarint(buf, uint64(len(b.data)))
			buf = append(buf, b.data...)
		}
		if _, err := cw.Write(buf); err != nil {
			return cw.n, err
		}
		entries = append(entries, entry{key: snap.key, off: off, length: cw.n - off})
	}
	indexOff := cw.n
	buf = colenc.AppendUvarint(buf[:0], uint64(len(entries)))
	for _, e := range entries {
		buf = colenc.AppendUvarint(buf, uint64(len(e.key)))
		buf = append(buf, e.key...)
		buf = colenc.AppendUvarint(buf, uint64(e.off))
		buf = colenc.AppendUvarint(buf, uint64(e.length))
	}
	var trailer [8]byte
	binary.LittleEndian.PutUint64(trailer[:], uint64(indexOff))
	buf = append(buf, trailer[:]...)
	buf = append(buf, blockFileMagic...)
	if _, err := cw.Write(buf); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// WriteBlocksFile writes the block-file serialisation to path crash-safely:
// the bytes go to a temp file in path's directory, are synced, and the temp
// file is renamed over path. A process killed mid-dump (the daemon-shutdown
// telemetry path) therefore never leaves a truncated block file at path —
// either the previous complete file survives, or the new one is complete.
func (s *Store) WriteBlocksFile(path string) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return fmt.Errorf("tsdb: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("tsdb: writing block file: %w", err)
	}
	if _, err := s.WriteBlocks(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tsdb: writing block file: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tsdb: committing block file: %w", err)
	}
	return nil
}

// blockFileSeries is one index entry with its key parsed back into
// measurement and tags.
type blockFileSeries struct {
	key         string
	measurement string
	tags        Tags
	off         int64
	length      int64
}

// BlockFile is a read-only handle on a spilled store. Only the index lives
// in memory; Query reads and decodes just the matching series' sections.
// Safe for concurrent Query calls (reads go through ReadAt).
type BlockFile struct {
	f      *os.File
	series []blockFileSeries // sorted by key, as written
}

// OpenBlockFile opens a file written by WriteBlocks and parses its index.
func OpenBlockFile(path string) (*BlockFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	bf, err := newBlockFile(f)
	if err != nil {
		f.Close()
		return nil, err
	}
	return bf, nil
}

func newBlockFile(f *os.File) (*BlockFile, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < int64(2*len(blockFileMagic)+8) {
		return nil, fmt.Errorf("tsdb: block file too short (%d bytes)", size)
	}
	head := make([]byte, len(blockFileMagic))
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, err
	}
	if string(head) != blockFileMagic {
		return nil, fmt.Errorf("tsdb: bad block file magic %q", head)
	}
	trailer := make([]byte, 8+len(blockFileMagic))
	if _, err := f.ReadAt(trailer, size-int64(len(trailer))); err != nil {
		return nil, err
	}
	if string(trailer[8:]) != blockFileMagic {
		return nil, fmt.Errorf("tsdb: bad block file trailer magic %q", trailer[8:])
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	indexEnd := size - int64(len(trailer))
	if indexOff < int64(len(blockFileMagic)) || indexOff > indexEnd {
		return nil, fmt.Errorf("tsdb: block file index offset %d out of range", indexOff)
	}
	raw := make([]byte, indexEnd-indexOff)
	if _, err := f.ReadAt(raw, indexOff); err != nil {
		return nil, err
	}
	n64, k := colenc.Uvarint(raw)
	if k == 0 {
		return nil, fmt.Errorf("tsdb: truncated block file index")
	}
	raw = raw[k:]
	// Counts and lengths come off the disk: each is bounded by the bytes
	// that could back it before it sizes an allocation or a cast, so a file
	// that lies about one runs into a truncation error below. An index
	// entry is at least three bytes.
	series := make([]blockFileSeries, 0, min(n64, uint64(len(raw))/3))
	for i := uint64(0); i < n64; i++ {
		kl, k := colenc.Uvarint(raw)
		if k == 0 || uint64(len(raw)-k) < kl {
			return nil, fmt.Errorf("tsdb: truncated block file index entry %d", i)
		}
		key := string(raw[k : k+int(kl)])
		raw = raw[k+int(kl):]
		off, k := colenc.Uvarint(raw)
		if k == 0 {
			return nil, fmt.Errorf("tsdb: truncated block file index entry %d", i)
		}
		raw = raw[k:]
		length, k := colenc.Uvarint(raw)
		// A section lies between the header magic and the index.
		if k == 0 || off < uint64(len(blockFileMagic)) || length > uint64(indexOff) || off > uint64(indexOff)-length {
			return nil, fmt.Errorf("tsdb: block file index entry %d truncated or out of range", i)
		}
		raw = raw[k:]
		measurement, tags, err := parseSeriesKey(key)
		if err != nil {
			return nil, fmt.Errorf("tsdb: block file index entry %d: %w", i, err)
		}
		series = append(series, blockFileSeries{
			key: key, measurement: measurement, tags: tags,
			off: int64(off), length: int64(length),
		})
	}
	return &BlockFile{f: f, series: series}, nil
}

// parseSeriesKey splits a store series key (measurement + canonical tag
// string) back into its parts; identifiers cannot contain ',' or '=', so
// the split is unambiguous.
func parseSeriesKey(key string) (string, Tags, error) {
	parts := strings.Split(key, ",")
	if parts[0] == "" {
		return "", nil, fmt.Errorf("empty measurement in key %q", key)
	}
	tags := make(Tags, len(parts)-1)
	for _, kv := range parts[1:] {
		k, v, ok := strings.Cut(kv, "=")
		if !ok || k == "" || v == "" {
			return "", nil, fmt.Errorf("bad tag %q in key %q", kv, key)
		}
		tags[k] = v
	}
	return parts[0], tags, nil
}

// Close releases the underlying file.
func (bf *BlockFile) Close() error { return bf.f.Close() }

// SeriesCount returns the number of series in the file.
func (bf *BlockFile) SeriesCount() int { return len(bf.series) }

// Query selects points with Store.Query semantics (tag match, [from, to)
// bounds, series sorted by key, deep-owned results) but reads and decodes
// only the sections of matching series. Blocks wholly outside the time
// range are skipped using the per-block bounds in the section header,
// without decoding.
func (bf *BlockFile) Query(measurement string, match Tags, from, to time.Time) ([]Series, error) {
	var out []Series
	for i := range bf.series {
		e := &bf.series[i]
		if e.measurement != measurement {
			continue
		}
		ok := true
		for mk, mv := range match {
			if e.tags[mk] != mv {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		pts, err := bf.readSeries(e, from, to)
		if err != nil {
			return nil, err
		}
		if len(pts) == 0 {
			continue
		}
		tags := make(Tags, len(e.tags))
		for tk, tv := range e.tags {
			tags[tk] = tv
		}
		out = append(out, Series{Measurement: e.measurement, Tags: tags, Points: pts})
	}
	sort.Slice(out, func(i, j int) bool {
		return seriesKey(out[i].Measurement, out[i].Tags) < seriesKey(out[j].Measurement, out[j].Tags)
	})
	return out, nil
}

// readSeries loads one series' section and decodes the blocks overlapping
// [from, to).
func (bf *BlockFile) readSeries(e *blockFileSeries, from, to time.Time) ([]Point, error) {
	raw := make([]byte, e.length)
	if _, err := bf.f.ReadAt(raw, e.off); err != nil {
		return nil, fmt.Errorf("tsdb: block file read %q: %w", e.key, err)
	}
	nb64, k := colenc.Uvarint(raw)
	if k == 0 {
		return nil, fmt.Errorf("tsdb: truncated section for %q", e.key)
	}
	raw = raw[k:]
	r := newTimeRange(from, to)
	var pts []Point
	for bi := uint64(0); bi < nb64; bi++ {
		n64, k := colenc.Uvarint(raw)
		if k == 0 {
			return nil, fmt.Errorf("tsdb: truncated block header for %q", e.key)
		}
		raw = raw[k:]
		minNs, k := colenc.Varint(raw)
		if k == 0 {
			return nil, fmt.Errorf("tsdb: truncated block header for %q", e.key)
		}
		raw = raw[k:]
		maxNs, k := colenc.Varint(raw)
		if k == 0 {
			return nil, fmt.Errorf("tsdb: truncated block header for %q", e.key)
		}
		raw = raw[k:]
		dl, k := colenc.Uvarint(raw)
		// Every point costs at least a byte of block data.
		if k == 0 || uint64(len(raw)-k) < dl || n64 > dl {
			return nil, fmt.Errorf("tsdb: truncated block data for %q", e.key)
		}
		data := raw[k : k+int(dl)]
		raw = raw[k+int(dl):]
		if !r.overlaps(minNs, maxNs) {
			continue
		}
		b := &block{n: int(n64), minNs: minNs, maxNs: maxNs, data: data}
		var err error
		if pts, err = b.appendPoints(pts, r); err != nil {
			return nil, fmt.Errorf("tsdb: block file %q: %w", e.key, err)
		}
	}
	return pts, nil
}
