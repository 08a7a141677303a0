package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/colenc"
)

// realCheckpoint commits a campaign-shaped log of n records twice, at n/2
// and n, and returns the two files the directory then holds. Its records
// compress well, so the pair stays small as a fuzz seed.
func realCheckpoint(t testing.TB, n int) (meta, sidecar []byte) {
	t.Helper()
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	ms := make([]analysis.Measurement, n)
	for i := range ms {
		ms[i] = analysis.Measurement{
			ServerID: i % 40, Region: "us-west1", Time: base.Add(time.Duration(i/80) * time.Hour),
			Mbps: float64(100 + i%3), RTTms: 20, Loss: 3e-7,
		}
	}
	dir := t.TempDir()
	log := analysis.NewRecordLog()
	w, err := NewWriter(dir, Campaign{Kind: "topology", Region: "us-west1", Days: 3, Identity: Identity{Seed: 3}}, log)
	if err != nil {
		t.Fatal(err)
	}
	commitAt(t, w, log, ms, 1, n/2, n)
	if meta, err = os.ReadFile(filepath.Join(dir, MetaFile)); err != nil {
		t.Fatal(err)
	}
	if sidecar, err = os.ReadFile(filepath.Join(dir, RecordsFile)); err != nil {
		t.Fatal(err)
	}
	return meta, sidecar
}

// hostileCheckpoints derives, from a real checkpoint of a tail alone, pairs
// whose metadata or frames lie: every count and length a checkpoint states,
// out of range or at odds with the bytes behind it. The frame cases are
// analysis.TestRecordLogHostileLengths' block cases in CLRL0002 framing,
// around the tail's payload: a frame that told the truth about it would
// still be refused, as it is no full block.
func hostileCheckpoints(t testing.TB) map[string][2][]byte {
	t.Helper()
	meta, sidecar := realCheckpoint(t, 50)
	var good Meta
	if err := json.Unmarshal(meta, &good); err != nil {
		t.Fatal(err)
	}
	if string(sidecar) != analysis.FramesMagic || good.TailRecords != 50 {
		t.Fatalf("test assumption broken: the checkpoint is not a %d-byte sidecar and a 50-record tail", len(sidecar))
	}
	withMeta := func(edit func(*Meta)) [2][]byte {
		m := good
		m.Regions = append([]string(nil), good.Regions...)
		edit(&m)
		raw, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return [2][]byte{raw, sidecar}
	}
	// withFile pairs the good metadata, covering the whole file, with a
	// sidecar of the magic and frames.
	withFile := func(magic string, frames ...[]byte) [2][]byte {
		file := append([]byte(magic), bytes.Join(frames, nil)...)
		c := withMeta(func(m *Meta) { m.SealedBytes = int64(len(file)) })
		c[1] = file
		return c
	}
	uv := func(vs ...uint64) []byte {
		var out []byte
		for _, v := range vs {
			out = colenc.AppendUvarint(out, v)
		}
		return out
	}
	payload, dl := good.Tail, uint64(len(good.Tail))
	frame := append(uv(50, dl), payload...)
	// Every count agrees with the bytes here — 50 records in the frame, 50
	// in the tail — and only the frame being no block is wrong.
	shortFrame := withFile(analysis.FramesMagic, frame)
	shortFrame[0] = withMeta(func(m *Meta) { m.SealedBytes, m.NumRecords = int64(len(shortFrame[1])), 100 })[0]
	cases := map[string][2][]byte{
		"sealedBytes 0":                        withMeta(func(m *Meta) { m.SealedBytes = 0 }),
		"sealedBytes inside the magic":         withMeta(func(m *Meta) { m.SealedBytes = 7 }),
		"sealedBytes past the file":            withMeta(func(m *Meta) { m.SealedBytes++ }),
		"sealedBytes 2^62":                     withMeta(func(m *Meta) { m.SealedBytes = 1 << 62 }),
		"tail count negative":                  withMeta(func(m *Meta) { m.TailRecords = -1 }),
		"tail count past its bytes":            withMeta(func(m *Meta) { m.TailRecords = len(m.Tail) + 1 }),
		"tail count 2^40":                      withMeta(func(m *Meta) { m.TailRecords = 1 << 40 }),
		"tail count one too many":              withMeta(func(m *Meta) { m.TailRecords++ }),
		"tail count one too few":               withMeta(func(m *Meta) { m.TailRecords-- }),
		"tail of a whole block":                withMeta(func(m *Meta) { m.TailRecords = 4096 }),
		"tail bytes without a count":           withMeta(func(m *Meta) { m.TailRecords = 0 }),
		"tail bytes garbage":                   withMeta(func(m *Meta) { m.Tail = bytes.Repeat([]byte{0xff}, len(m.Tail)) }),
		"region named twice":                   withMeta(func(m *Meta) { m.Regions = append(m.Regions, m.Regions[0]) }),
		"region table empty":                   withMeta(func(m *Meta) { m.Regions = nil }),
		"record count negative":                withMeta(func(m *Meta) { m.NumRecords = -5 }),
		"record count one too many":            withMeta(func(m *Meta) { m.NumRecords++ }),
		"record count one too few":             withMeta(func(m *Meta) { m.NumRecords-- }),
		"version 1 over a CLRL0002 sidecar":    withMeta(func(m *Meta) { m.Version = 1 }),
		"version 2":                            withMeta(func(m *Meta) { m.Version = 2 }),
		"CLRL0001 magic":                       withFile("CLRL0001"),
		"frame short of a block":               shortFrame,
		"frame claims 2^63 records":            withFile(analysis.FramesMagic, uv(1<<63, 6), []byte{1, 0, 0, 0, 0, 0}),
		"frame claims more records than bytes": withFile(analysis.FramesMagic, uv(7, 6), []byte{1, 0, 0, 0, 0, 0}),
		"frame claims 2^40 records":            withFile(analysis.FramesMagic, uv(1<<40, dl), payload),
		"frame claims one record too many":     withFile(analysis.FramesMagic, uv(51, dl), payload),
		"frame claims one record too few":      withFile(analysis.FramesMagic, uv(49, dl), payload),
		"frame data length past the file":      withFile(analysis.FramesMagic, uv(50, dl+1), payload),
		"frame data length 2^63":               withFile(analysis.FramesMagic, uv(50, 1<<63), payload),
	}
	for _, cut := range []int{1, 2, 3, len(frame) / 2, len(frame) - 1} {
		cases[fmt.Sprintf("frame cut to %d bytes", cut)] = withFile(analysis.FramesMagic, frame[:cut])
	}
	return cases
}

// TestLoadRejectsHostileCheckpoints holds Load to the rule for bytes that
// cross a trust boundary: every hostile pair is an error — never a panic,
// and never an allocation out of proportion to the files, whatever a count
// claims — while the real pair they are derived from loads.
func TestLoadRejectsHostileCheckpoints(t *testing.T) {
	load := func(meta, sidecar []byte) (*Checkpoint, uint64, error) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, RecordsFile), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ck, err := Load(dir)
		runtime.ReadMemStats(&after)
		return ck, after.TotalAlloc - before.TotalAlloc, err
	}
	for _, n := range []int{50, 4096 + 300} {
		if ck, _, err := load(realCheckpoint(t, n)); err != nil || ck.NumRecords() != n {
			t.Fatalf("the real checkpoint of %d records: %v", n, err)
		}
	}
	for name, c := range hostileCheckpoints(t) {
		_, grew, err := load(c[0], c[1])
		if err == nil {
			t.Errorf("%s: loaded without error", name)
		}
		// Both files are read whole and the block decoded into columns of
		// eight bytes a record, and a record is a byte or more of file.
		if limit := uint64(64*(len(c[0])+len(c[1])) + 1<<16); grew > limit {
			t.Errorf("%s: allocated %d bytes loading %d + %d bytes of files (limit %d)", name, grew, len(c[0]), len(c[1]), limit)
		}
	}
}

// FuzzLoadCheckpoint feeds Load a checkpoint directory of arbitrary
// (checkpoint.json, records.clog) bytes. Its seed corpus under testdata is
// a real checkpoint of a block and a tail (realCheckpoint of 4,396
// records), the same checkpoint as version 2 wrote it, and
// hostileCheckpoints' pairs. Load refuses or succeeds
// and never panics; a checkpoint it loads replays exactly NumRecords
// records; and one a campaign may resume from commits, resumed, into a
// checkpoint that loads with the same records.
func FuzzLoadCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, meta, sidecar []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, MetaFile), meta, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, RecordsFile), sidecar, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := Load(dir)
		if err != nil {
			return
		}
		var want []analysis.Measurement
		if err := ck.Replay(func(m analysis.Measurement) { want = append(want, m) }); err != nil || len(want) != ck.NumRecords() {
			t.Fatalf("a loaded checkpoint replays %d of %d records: %v", len(want), ck.NumRecords(), err)
		}
		_, w, err := ck.Resume(ck.Meta.Campaign)
		if err != nil {
			return
		}
		if err := w.Commit(ck.Meta.Progress); err != nil {
			t.Fatal(err)
		}
		again, err := Load(dir)
		if err != nil {
			t.Fatalf("a resumed checkpoint committed into one that does not load: %v", err)
		}
		var got []analysis.Measurement
		if err := again.Replay(func(m analysis.Measurement) { got = append(got, m) }); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("recommitted checkpoint replays %d records, want the %d loaded: %v", len(got), len(want), err)
		}
	})
}
