package analysis

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/colenc"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/obs"
)

// campaignRecords builds n hour-major campaign-shaped measurements, the
// layout the orchestrator's sink delivers.
func campaignRecords(n int) []Measurement {
	rng := rand.New(rand.NewSource(3))
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-west1", "us-east1", "europe-west1"}
	ms := make([]Measurement, n)
	for i := range ms {
		ms[i] = Measurement{
			ServerID: i % 40,
			Region:   regions[(i/40)%len(regions)],
			Tier:     bgp.Tier(i % 2),
			Dir:      netsim.Direction((i / 2) % 2),
			Time:     base.Add(time.Duration(i/160) * time.Hour),
			Mbps:     rng.Float64() * 900,
			RTTms:    rng.Float64() * 80,
			// Loss mirrors the simulator: the clean-path residual constant
			// almost always, a congestion value occasionally.
			Loss: 3e-7,
		}
		if rng.Intn(20) == 0 {
			ms[i].Loss = rng.Float64() * 0.05
		}
	}
	return ms
}

func measurementsEqual(a, b Measurement) bool {
	return a.ServerID == b.ServerID && a.Region == b.Region &&
		a.Tier == b.Tier && a.Dir == b.Dir &&
		a.Time.Equal(b.Time) &&
		math.Float64bits(a.Mbps) == math.Float64bits(b.Mbps) &&
		math.Float64bits(a.RTTms) == math.Float64bits(b.RTTms) &&
		math.Float64bits(a.Loss) == math.Float64bits(b.Loss)
}

func drain(c Cursor) []Measurement {
	var out []Measurement
	for batch := c.Next(); batch != nil; batch = c.Next() {
		out = append(out, batch...)
	}
	return out
}

// drainColumns is drain through the column side of the cursor: every batch
// asked for whole and gathered back into records.
func drainColumns(c Cursor) []Measurement {
	var out []Measurement
	for b := c.NextColumns(ColAll); b != nil; b = c.NextColumns(ColAll) {
		for i := 0; i < b.N; i++ {
			out = append(out, b.record(i))
		}
	}
	return out
}

func newLog(t *testing.T, ms []Measurement) *RecordLog {
	t.Helper()
	l := NewRecordLog()
	for _, m := range ms {
		l.Append(m)
	}
	return l
}

// TestRecordLogRoundTrip pins losslessness: a cursor replays the exact
// append sequence across block boundaries, twice (Reset determinism).
func TestRecordLogRoundTrip(t *testing.T) {
	ms := campaignRecords(3*logBlockSize + 177) // blocks + partial tail
	l := newLog(t, ms)
	if l.Len() != len(ms) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(ms))
	}
	if !measurementsEqual(l.First(), ms[0]) || !measurementsEqual(l.Last(), ms[len(ms)-1]) {
		t.Fatal("First/Last drifted")
	}
	// Last reads the tail, or the sealed block's last record when a block
	// has just sealed and the tail is empty.
	for _, n := range []int{1, logBlockSize - 1, logBlockSize, logBlockSize + 1, 2 * logBlockSize} {
		if got := newLog(t, ms[:n]).Last(); !measurementsEqual(got, ms[n-1]) {
			t.Fatalf("after %d appends: Last is not the last record", n)
		}
	}
	if got := NewRecordLog().Last(); got != (Measurement{}) {
		t.Fatal("an empty log's Last is not the zero record")
	}
	c := l.Cursor()
	for pass := 0; pass < 2; pass++ {
		got := drain(c)
		if len(got) != len(ms) {
			t.Fatalf("pass %d: got %d records, want %d", pass, len(got), len(ms))
		}
		for i := range ms {
			if !measurementsEqual(got[i], ms[i]) {
				t.Fatalf("pass %d: record %d drifted:\n in: %+v\nout: %+v", pass, i, ms[i], got[i])
			}
		}
		c.Reset()
	}
}

// TestRecordLogSpill pins that spilling to disk changes nothing a reader
// can see, drops the resident footprint, counts every spilled byte once in
// analysis_log_spilled_bytes_total, and supports concurrent cursors.
func TestRecordLogSpill(t *testing.T) {
	ms := campaignRecords(2*logBlockSize + 17)
	l := newLog(t, ms)
	obs.SetEnabled(true)
	defer obs.SetEnabled(false)
	before := obsSpilledBytes.Value()
	if err := l.Spill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if !l.spilled {
		t.Fatal("not spilled")
	}
	if moved := obsSpilledBytes.Value() - before; moved != uint64(l.CompressedBytes()) {
		t.Errorf("spilled-bytes counter moved %d, want the log's %d compressed bytes", moved, l.CompressedBytes())
	}
	for i := range l.blocks {
		if l.blocks[i].data != nil {
			t.Fatalf("block %d still holds %d bytes in memory after spill", i, len(l.blocks[i].data))
		}
	}
	if len(l.tail) != 0 {
		t.Fatalf("%d records left in the tail after spill", len(l.tail))
	}
	if l.CompressedBytes() == 0 {
		t.Fatal("CompressedBytes = 0")
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := drain(l.Cursor())
			if len(got) != len(ms) {
				t.Errorf("got %d records, want %d", len(got), len(ms))
				return
			}
			for i := range ms {
				if !measurementsEqual(got[i], ms[i]) {
					t.Errorf("record %d drifted after spill", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := l.Spill(t.TempDir()); err != nil {
		t.Fatalf("second Spill: %v", err)
	}
	if moved := obsSpilledBytes.Value() - before; moved != uint64(l.CompressedBytes()) {
		t.Errorf("a second Spill moved the spilled-bytes counter to %d, want it left at %d", moved, l.CompressedBytes())
	}
}

// TestRecordLogResidentConcurrentCursors pins the default campaign state: a
// resident, never-spilled log whose last records still sit in the raw tail
// serves any number of concurrent cursors — read as records and as column
// batches, the two sides a cursor has — each replaying the append sequence.
// Close on such a log is a no-op, so cursors keep working after it. Run
// under -race, this is the check that readers share nothing mutable.
func TestRecordLogResidentConcurrentCursors(t *testing.T) {
	ms := campaignRecords(2*logBlockSize + 311)
	// A region only the tail has seen: its batch codes regions through a
	// table of the cursor's own, never by growing the log's.
	ms[len(ms)-1].Region = "asia-east1"
	l := newLog(t, ms)
	if l.spilled || len(l.tail) == 0 {
		t.Fatalf("want a resident log with a non-empty tail (spilled %v, tail %d)", l.spilled, len(l.tail))
	}
	check := func(name string, got []Measurement) {
		if len(got) != len(ms) {
			t.Errorf("%s: got %d records, want %d", name, len(got), len(ms))
			return
		}
		for i := range ms {
			if !measurementsEqual(got[i], ms[i]) {
				t.Errorf("%s: record %d drifted", name, i)
				return
			}
		}
	}
	readAll := func() {
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				check("records", drain(l.Cursor()))
			}()
			go func() {
				defer wg.Done()
				check("columns", drainColumns(l.Cursor()))
			}()
		}
		wg.Wait()
	}
	readAll()
	if err := l.Close(); err != nil {
		t.Fatalf("Close on a resident log: %v", err)
	}
	readAll()
	if len(l.regions) != 3 {
		t.Fatalf("reading grew the log's region table to %q", l.regions)
	}
}

// TestMeasurementBytes pins the exported record size to the struct.
func TestMeasurementBytes(t *testing.T) {
	if got := unsafe.Sizeof(Measurement{}); got != MeasurementBytes {
		t.Fatalf("unsafe.Sizeof(Measurement{}) = %d, MeasurementBytes = %d", got, MeasurementBytes)
	}
}

// logSnapshot is what a checkpoint saves of a log: the CLRL0002 file of its
// sealed blocks and the tail EncodeTail gives beside it, copied out of the
// log's scratch.
type logSnapshot struct {
	file    []byte
	regions []string
	tailN   int
	tail    []byte
}

func snapshot(t *testing.T, l *RecordLog) logSnapshot {
	t.Helper()
	file, err := l.AppendFrames([]byte(FramesMagic), 0, l.SealedBlocks())
	if err != nil {
		t.Fatal(err)
	}
	regions, n, tail := l.EncodeTail()
	return logSnapshot{file, slices.Clone(regions), n, bytes.Clone(tail)}
}

func (s logSnapshot) read() (*RecordLog, error) {
	return ReadFrames(s.file, s.regions, s.tailN, s.tail)
}

// TestRecordLogSerializeRoundTrip pins the checkpoint sidecar contract:
// every log shape (empty, tail-only, sealed blocks + tail, spilled) saves
// as frames plus an encoded tail that read back (ReadFrames) into an
// identical replay. Saving never mutates the live log, and is
// deterministic.
func TestRecordLogSerializeRoundTrip(t *testing.T) {
	shapes := []struct {
		name  string
		n     int
		spill bool
	}{
		{"empty", 0, false},
		{"tail-only", 13, false},
		{"blocks+tail", 2*logBlockSize + 177, false},
		// Spill seals the tail, and a short sealed block is no frame of a
		// CLRL0002 file, so this shape is whole blocks.
		{"spilled", 2 * logBlockSize, true},
	}
	for _, tc := range shapes {
		t.Run(tc.name, func(t *testing.T) {
			ms := campaignRecords(tc.n)
			l := newLog(t, ms)
			if tc.spill {
				if err := l.Spill(t.TempDir()); err != nil {
					t.Fatal(err)
				}
				defer l.Close()
			}
			s := snapshot(t, l)
			if again := snapshot(t, l); !reflect.DeepEqual(s, again) {
				t.Fatal("two snapshots of the same log differ")
			}
			got, err := s.read()
			if err != nil {
				t.Fatal(err)
			}
			if got.Len() != len(ms) {
				t.Fatalf("decoded Len = %d, want %d", got.Len(), len(ms))
			}
			out := drain(got.Cursor())
			for i := range ms {
				if !measurementsEqual(out[i], ms[i]) {
					t.Fatalf("record %d drifted through serialization", i)
				}
			}
			if len(ms) > 0 {
				if !measurementsEqual(got.First(), ms[0]) || !measurementsEqual(got.Last(), ms[len(ms)-1]) {
					t.Fatal("First/Last drifted through serialization")
				}
			}
			// The source log must still replay — saving may not consume or
			// reorder anything (it serves live sinks after a commit).
			src := drain(l.Cursor())
			if len(src) != len(ms) {
				t.Fatalf("saving mutated the source log: %d records left, want %d", len(src), len(ms))
			}
		})
	}
}

// TestReadFramesSealsLikeUninterrupted is the resume contract at the log:
// a log saved at any record count, read back and then fed the records after
// it seals the blocks an uninterrupted log seals, byte for byte, with the
// same tail and First/Last. A region only the tail names crosses the save.
func TestReadFramesSealsLikeUninterrupted(t *testing.T) {
	ms := campaignRecords(3*logBlockSize + 177)
	ms[2*logBlockSize+100].Region = "asia-east1"
	want := snapshot(t, newLog(t, ms))
	for _, saved := range []int{0, 1, 100, logBlockSize - 1, logBlockSize, logBlockSize + 1, 2*logBlockSize + 150, len(ms)} {
		got, err := snapshot(t, newLog(t, ms[:saved])).read()
		if err != nil {
			t.Fatalf("saved at %d: %v", saved, err)
		}
		if saved > 0 && !measurementsEqual(got.Last(), ms[saved-1]) || saved == 0 && got.Last() != (Measurement{}) {
			t.Fatalf("saved at %d: Last drifted", saved)
		}
		for _, m := range ms[saved:] {
			got.Append(m)
		}
		if !reflect.DeepEqual(snapshot(t, got), want) {
			t.Fatalf("saved at %d: the continued log differs from the uninterrupted one", saved)
		}
		if !measurementsEqual(got.First(), ms[0]) || !measurementsEqual(got.Last(), ms[len(ms)-1]) {
			t.Fatalf("saved at %d: First/Last drifted", saved)
		}
	}
}

// TestReadFramesRejectsMisshapen pins the shape ReadFrames requires, each
// case otherwise well formed: every frame a full block, a tail short of
// one, and no tail bytes without a tail count. A checkpoint's writer
// resumes at the end of the frames ReadFrames keeps sealed, so a short
// frame or a whole-block tail would put the sidecar and the log out of
// step.
func TestReadFramesRejectsMisshapen(t *testing.T) {
	ms := campaignRecords(logBlockSize + 10)
	whole := snapshot(t, newLog(t, ms))
	short := snapshot(t, newLog(t, ms[:10]))
	shortFrame := colenc.AppendUvarint(colenc.AppendUvarint([]byte(FramesMagic), 10), uint64(len(short.tail)))
	shortFrame = append(shortFrame, short.tail...)
	block := whole.file[len(FramesMagic):]
	_, k := colenc.Uvarint(block)
	_, k2 := colenc.Uvarint(block[k:])
	for name, s := range map[string]logSnapshot{
		"a frame short of a block": {shortFrame, short.regions, 0, nil},
		"a tail of a whole block":  {[]byte(FramesMagic), whole.regions, logBlockSize, block[k+k2:]},
		"tail bytes and no count":  {whole.file, whole.regions, 0, whole.tail},
	} {
		if _, err := s.read(); err == nil {
			t.Errorf("%s: read without error", name)
		}
	}
	if _, err := whole.read(); err != nil {
		t.Fatalf("the snapshot the cases are cut from: %v", err)
	}
}

// TestReadRecordLogRejectsPartial sweeps truncation points over a valid
// sidecar: no prefix of a CLRL0002 file that cuts a frame decodes, and
// garbage magic fails. With the checkpoint's commit ordering this pins that
// a resume sees either a complete record stream or an error.
func TestReadRecordLogRejectsPartial(t *testing.T) {
	l := newLog(t, campaignRecords(logBlockSize+57))
	s := snapshot(t, l) // the magic and one frame
	for cut := 0; cut < len(s.file); cut++ {
		if _, err := ReadFrames(s.file[:cut], s.regions, 0, nil); (err == nil) != (cut == len(FramesMagic)) {
			t.Fatalf("CLRL0002 file cut to %d of %d bytes: error %v", cut, len(s.file), err)
		}
	}
	bad := bytes.Clone(s.file)
	bad[0] ^= 0xff
	if _, err := ReadFrames(bad, s.regions, 0, nil); err == nil {
		t.Fatal("bad CLRL0002 magic decoded without error")
	}
}

// TestRecordLogCompression pins the ≥4x bytes/record win over the 88-byte
// in-memory Measurement struct on campaign-shaped data.
func TestRecordLogCompression(t *testing.T) {
	ms := campaignRecords(4 * logBlockSize) // sealed blocks only
	l := newLog(t, ms)
	perRecord := float64(l.CompressedBytes()) / float64(4*logBlockSize)
	if perRecord > 21.5 {
		t.Fatalf("compressed bytes/record = %.1f, want <= 21.5 (>4x vs 88B struct)", perRecord)
	}
	t.Logf("bytes/record = %.1f (%.1fx vs in-memory struct)", perRecord, 88/perRecord)
}

// TestRecordLogUnpackableTierDir pins the fallback column for enum values
// outside the packed 4-bit range.
func TestRecordLogUnpackableTierDir(t *testing.T) {
	ms := campaignRecords(100)
	ms[17].Tier = 99
	ms[23].Dir = -3
	l := NewRecordLog()
	for _, m := range ms {
		l.Append(m)
	}
	l.sealTail() // force encode despite the short tail
	got := drain(l.Cursor())
	if len(got) != len(ms) {
		t.Fatalf("got %d records, want %d", len(got), len(ms))
	}
	for i := range ms {
		if !measurementsEqual(got[i], ms[i]) {
			t.Fatalf("record %d drifted", i)
		}
	}
}

// TestCursorKernelsMatchSlice pins byte-identity of the log decode under
// every kernel: each produces over a compressed (and spilled) log exactly
// what it produces over the raw records.
func TestCursorKernelsMatchSlice(t *testing.T) {
	ms := campaignRecords(2*logBlockSize + 503)
	l := newLog(t, ms)
	if err := l.Spill(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	if got, want := GroupSeriesWithServerCursor(l.Cursor(), netsim.Download, bgp.Premium),
		GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, bgp.Premium); !reflect.DeepEqual(got, want) {
		t.Fatal("GroupSeriesWithServerCursor differs from slice kernel")
	}
	if got, want := groupSeries(l.Cursor(), netsim.Upload, bgp.Standard),
		groupSeries(NewSliceCursor(ms), netsim.Upload, bgp.Standard); !reflect.DeepEqual(got, want) {
		t.Fatal("grouping over the log differs from slice kernel")
	}
	if got, want := PerfPointsCursor(l.Cursor()), PerfPointsCursor(NewSliceCursor(ms)); !reflect.DeepEqual(got, want) {
		t.Fatal("PerfPointsCursor differs from slice kernel")
	}
	each := TierDeltasEach([]Cursor{l.Cursor()}, "us-west1", MetricDownload, MetricUpload, MetricLatency)
	for _, metric := range []Metric{MetricDownload, MetricUpload, MetricLatency} {
		want := tierDeltasOf(NewSliceCursor(ms), "us-west1", metric)
		if got := tierDeltasOf(l.Cursor(), "us-west1", metric); !reflect.DeepEqual(got, want) {
			t.Fatalf("TierDeltasEach(%v) differs from slice kernel", metric)
		}
		if !reflect.DeepEqual(each[metric], want) {
			t.Fatalf("TierDeltasEach[%v] differs from the one-metric kernel", metric)
		}
	}
	if got, want := PremiumLossTargetsCursor(l.Cursor(), "us-east1"),
		PremiumLossTargetsCursor(NewSliceCursor(ms), "us-east1"); !reflect.DeepEqual(got, want) {
		t.Fatal("PremiumLossTargetsCursor differs from slice kernel")
	}
}

// TestTierDeltasEachMatchesOneMetric: Fig. 5's one pass must build each
// metric's deltas exactly as a scan for that metric alone does, over a log
// of several blocks where both tiers of a server meet in an hour, in both
// directions and in several regions, and where a (tier, server, hour)
// repeats, so the last record delivered wins in each metric.
func TestTierDeltasEachMatchesOneMetric(t *testing.T) {
	ms := campaignRecords(3*logBlockSize + 77)
	for i := range ms {
		ms[i].ServerID = (i / 8) % 40
		ms[i].Tier = bgp.Tier((i / 4) % 2)
	}
	l := newLog(t, ms)
	for _, region := range []string{"us-west1", "europe-west1", "nowhere"} {
		each := TierDeltasEach([]Cursor{l.Cursor()}, region, MetricDownload, MetricUpload, MetricLatency)
		for _, metric := range []Metric{MetricDownload, MetricUpload, MetricLatency} {
			want := tierDeltasOf(NewSliceCursor(ms), region, metric)
			if (region == "nowhere") != (len(want) == 0) {
				t.Fatalf("%s %v: %d deltas", region, metric, len(want))
			}
			if !reflect.DeepEqual(each[metric], want) {
				t.Fatalf("%s: TierDeltasEach[%v] has %d deltas, the one-metric kernel %d, or they differ",
					region, metric, len(each[metric]), len(want))
			}
		}
	}
}

// TestPerfPointsTierMatchesFilteredSlice pins Fig. 4's tier split: the
// series kernel over one tier's download view of a whole stream yields what
// the all-tier entry point yields over the records of that tier alone.
func TestPerfPointsTierMatchesFilteredSlice(t *testing.T) {
	ms := campaignRecords(logBlockSize + 301)
	l := newLog(t, ms)
	for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
		var only []Measurement
		for _, m := range ms {
			if m.Tier == tier {
				only = append(only, m)
			}
		}
		want := PerfPointsCursor(NewSliceCursor(only))
		if len(want) == 0 {
			t.Fatalf("%s: no perf points", tier)
		}
		if got := PerfPointsOfSeries(GroupSeriesWithServerCursor(l.Cursor(), netsim.Download, tier)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: perf points over the log differ from those of the pre-filtered slice", tier)
		}
		if got := PerfPointsOfSeries(GroupSeriesWithServerCursor(NewSliceCursor(ms), netsim.Download, tier)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: perf points over the slice differ from those of the pre-filtered slice", tier)
		}
	}
}

// TestSliceCursorEmpty pins the EOF contract on empty input.
func TestSliceCursorEmpty(t *testing.T) {
	c := NewSliceCursor(nil)
	if c.Next() != nil {
		t.Fatal("empty cursor should yield nil")
	}
	if out := GroupSeriesWithServerCursor(NewSliceCursor(nil), netsim.Download, bgp.Premium); out != nil {
		t.Fatalf("got %v, want nil", out)
	}
	l := NewRecordLog()
	if l.Cursor().Next() != nil {
		t.Fatal("empty log cursor should yield nil")
	}
}
