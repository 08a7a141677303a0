package checkpoint

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
)

// randomProgress fills every field of an orchestrator.Progress from rng by
// reflection, so a field added to the campaign state is round-tripped here
// without anyone remembering to: one that cannot survive Commit → Load
// (unexported, json:"-", a kind JSON cannot carry) fails
// TestCheckpointRoundTripProperty. All floats are finite — encoding/json
// round-trips finite float64 exactly — and maps and slices flip between
// filled and absent so both JSON shapes are exercised.
func randomProgress(t *testing.T, rng *rand.Rand) orchestrator.Progress {
	t.Helper()
	var p orchestrator.Progress
	fillRandom(t, reflect.ValueOf(&p).Elem(), "Progress", rng)
	return p
}

func fillRandom(t *testing.T, v reflect.Value, path string, rng *rand.Rand) {
	t.Helper()
	if !v.CanSet() {
		t.Fatalf("%s is unexported: a checkpoint cannot carry it", path)
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(rng.Intn(1<<20) + 1))
	case reflect.Float64:
		v.SetFloat(rng.Float64() + 0.001)
	case reflect.String:
		v.SetString(fmt.Sprintf("s-%d", rng.Intn(1000)))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, v.Field(i), path+"."+v.Type().Field(i).Name, rng)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillRandom(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), rng)
		}
	case reflect.Slice:
		if rng.Intn(4) == 0 {
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), rng.Intn(3)+1, 4))
		for i := 0; i < v.Len(); i++ {
			fillRandom(t, v.Index(i), path+"[]", rng)
		}
	case reflect.Map:
		if rng.Intn(4) == 0 {
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for i, n := 0, rng.Intn(3)+1; i < n; i++ {
			k, e := reflect.New(v.Type().Key()).Elem(), reflect.New(v.Type().Elem()).Elem()
			fillRandom(t, k, path+"[key]", rng)
			fillRandom(t, e, path+"[value]", rng)
			v.SetMapIndex(k, e)
		}
	default:
		t.Fatalf("%s has kind %s, which this filler (and so the round-trip property) does not cover", path, v.Kind())
	}
}

func randomCampaign(rng *rand.Rand) Campaign {
	kinds := []string{"topology", "differential"}
	return Campaign{
		Kind:   kinds[rng.Intn(2)],
		Region: fmt.Sprintf("region-%d", rng.Intn(9)),
		Days:   rng.Intn(30) + 1,
		Identity: Identity{
			Seed:            rng.Int63(),
			Scale:           rng.Float64(),
			FaultProfile:    []string{"", "none", "flaky-vm", "storm"}[rng.Intn(4)],
			CaptureEvery:    rng.Intn(500),
			TracerouteEvery: rng.Intn(24),
			CheckpointEvery: rng.Intn(5),
		},
		MinSamples: rng.Intn(100),
	}
}

// testRecords builds n campaign-shaped measurements deterministically.
func testRecords(n int) []analysis.Measurement {
	rng := rand.New(rand.NewSource(7))
	base := time.Date(2020, 5, 1, 0, 0, 0, 0, time.UTC)
	regions := []string{"us-west1", "us-east1", "europe-west1"}
	ms := make([]analysis.Measurement, n)
	for i := range ms {
		ms[i] = analysis.Measurement{
			ServerID: i % 40,
			Region:   regions[(i/40)%len(regions)],
			Tier:     bgp.Tier(i % 2),
			Dir:      netsim.Direction((i / 2) % 2),
			Time:     base.Add(time.Duration(i/160) * time.Hour),
			Mbps:     rng.Float64() * 900,
			RTTms:    rng.Float64() * 80,
			Loss:     3e-7,
		}
	}
	return ms
}

func newTestLog(t *testing.T, ms []analysis.Measurement) *analysis.RecordLog {
	t.Helper()
	l := analysis.NewRecordLog()
	for _, m := range ms {
		l.Append(m)
	}
	return l
}

// TestCheckpointRoundTripProperty is the encode/decode property test: for
// many random (Campaign, Progress, record prefix) triples, Commit → Load
// reproduces the metadata bit-exactly (reflect.DeepEqual over structs that
// include floats, maps and nested state) and Replay yields exactly the
// records the snapshot covers, in order.
func TestCheckpointRoundTripProperty(t *testing.T) {
	ms := testRecords(600)
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		camp := randomCampaign(rng)
		prog := randomProgress(t, rng)

		n := rng.Intn(len(ms) + 1)
		log := newTestLog(t, ms[:n])
		dir := t.TempDir()
		w, err := NewWriter(dir, camp, log)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(prog); err != nil {
			t.Fatal(err)
		}

		ck, err := Load(dir)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ck.Meta.Version != Version {
			t.Fatalf("seed %d: version %d", seed, ck.Meta.Version)
		}
		if !reflect.DeepEqual(ck.Meta.Campaign, camp) {
			t.Fatalf("seed %d: campaign drifted:\n in: %+v\nout: %+v", seed, camp, ck.Meta.Campaign)
		}
		if !reflect.DeepEqual(ck.Meta.Progress, prog) {
			t.Fatalf("seed %d: progress drifted:\n in: %+v\nout: %+v", seed, prog, ck.Meta.Progress)
		}
		if ck.NumRecords() != n {
			t.Fatalf("seed %d: NumRecords = %d, want %d", seed, ck.NumRecords(), n)
		}
		var got []analysis.Measurement
		if err := ck.Replay(func(m analysis.Measurement) { got = append(got, m) }); err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("seed %d: replayed %d records, want %d", seed, len(got), n)
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], ms[i]) {
				t.Fatalf("seed %d: record %d drifted", seed, i)
			}
		}
	}
}

// campaignProgress is a campaign's snapshot after hour-1 with n records,
// one per completed test.
func campaignProgress(hour, n int) orchestrator.Progress {
	p := orchestrator.Progress{NextHour: hour}
	p.Report.Tests = n
	return p
}

// commitAt feeds log the records of ms it does not hold yet up to each cut
// and commits after each, at hours first, first+1, ...
func commitAt(t testing.TB, w *Writer, log *analysis.RecordLog, ms []analysis.Measurement, first int, cuts ...int) {
	t.Helper()
	for i, n := range cuts {
		for _, m := range ms[log.Len():n] {
			log.Append(m)
		}
		if err := w.Commit(campaignProgress(first+i, n)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointSidecarAhead pins the partial-commit contract. A commit
// killed after its sidecar append but before the metadata rename leaves
// bytes past SealedBytes — here whole frames and then junk, as a torn
// write could. Load ignores them and delivers the old snapshot; Resume
// truncates them, and the finished directory equals an uninterrupted run's
// byte for byte. A sidecar shorter than the metadata
// covers is refused.
func TestCheckpointSidecarAhead(t *testing.T) {
	// Blocks seal every 4,096 records: each commit after the first seals one.
	ms := testRecords(3*4096 + 100)
	cuts := []int{5000, 9000, len(ms)}
	camp := Campaign{Kind: "topology", Region: "us-west1", Days: 1, Identity: Identity{Seed: 3}}

	ref := t.TempDir()
	refLog := analysis.NewRecordLog()
	w, err := NewWriter(ref, camp, refLog)
	if err != nil {
		t.Fatal(err)
	}
	commitAt(t, w, refLog, ms, 1, cuts...)

	dir := t.TempDir()
	log := analysis.NewRecordLog()
	if w, err = NewWriter(dir, camp, log); err != nil {
		t.Fatal(err)
	}
	commitAt(t, w, log, ms, 1, cuts[0])
	for _, m := range ms[cuts[0]:cuts[1]] {
		log.Append(m)
	}
	if err := w.appendRecords(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, RecordsFile), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// More junk than the resumed run appends, so only truncation clears it.
	if _, err := f.Write(bytes.Repeat([]byte{0xff}, 1<<18)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ck, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta.Progress.NextHour != 1 || ck.NumRecords() != cuts[0] {
		t.Fatalf("loaded hour %d with %d records, want the old snapshot's 1 and %d", ck.Meta.Progress.NextHour, ck.NumRecords(), cuts[0])
	}
	var got []analysis.Measurement
	if err := ck.Replay(func(m analysis.Measurement) { got = append(got, m) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ms[:cuts[0]]) {
		t.Fatalf("replayed %d records that differ from the snapshot's %d", len(got), cuts[0])
	}

	log, w, err = ck.Resume(camp)
	if err != nil {
		t.Fatal(err)
	}
	commitAt(t, w, log, ms, 2, cuts[1:]...)
	for _, name := range []string{RecordsFile, MetaFile} {
		a, errA := os.ReadFile(filepath.Join(dir, name))
		b, errB := os.ReadFile(filepath.Join(ref, name))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("resumed %s (%d bytes, %v) differs from the uninterrupted run's (%d bytes, %v)", name, len(a), errA, len(b), errB)
		}
	}

	// A sidecar shorter than the metadata covers means the directory was
	// tampered with or the commit ordering violated; Load must refuse.
	fi, err := os.Stat(filepath.Join(dir, RecordsFile))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(dir, RecordsFile), fi.Size()-1); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("sidecar behind metadata should not load")
	}
}

// TestCheckpointOverwrite pins that each Commit fully supersedes the last
// and leaves no temp files behind.
func TestCheckpointOverwrite(t *testing.T) {
	ms := testRecords(120)
	log := newTestLog(t, ms[:40])
	dir := t.TempDir()
	w, err := NewWriter(dir, Campaign{Kind: "topology"}, log)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{40, 80, 120} {
		for _, m := range ms[log.Len():n] {
			log.Append(m)
		}
		if err := w.Commit(orchestrator.Progress{NextHour: i + 1}); err != nil {
			t.Fatal(err)
		}
		ck, err := Load(dir)
		if err != nil {
			t.Fatal(err)
		}
		if ck.NumRecords() != n || ck.Meta.Progress.NextHour != i+1 {
			t.Fatalf("commit %d: NumRecords=%d NextHour=%d, want %d/%d", i, ck.NumRecords(), ck.Meta.Progress.NextHour, n, i+1)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("checkpoint dir holds %d entries, want exactly {%s, %s}: %v", len(entries), MetaFile, RecordsFile, entries)
	}
}

// TestLoadPathForms pins every accepted argument shape of Load/findMeta:
// the checkpoint directory, and a parent with exactly one checkpointed
// subdirectory — plus the error cases (the metadata file itself, none, or
// several and ambiguous).
func TestLoadPathForms(t *testing.T) {
	commit := func(t *testing.T, dir string) {
		t.Helper()
		w, err := NewWriter(dir, Campaign{Kind: "topology", Region: "us-west1"}, newTestLog(t, testRecords(10)))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(orchestrator.Progress{NextHour: 1}); err != nil {
			t.Fatal(err)
		}
	}

	parent := t.TempDir()
	sub := filepath.Join(parent, "us-west1-topology")
	commit(t, sub)

	for _, path := range []string{sub, parent} {
		ck, err := Load(path)
		if err != nil {
			t.Fatalf("Load(%s): %v", path, err)
		}
		if ck.Dir != sub || ck.NumRecords() != 10 {
			t.Fatalf("Load(%s): Dir=%s NumRecords=%d", path, ck.Dir, ck.NumRecords())
		}
	}

	if _, err := Load(filepath.Join(sub, MetaFile)); err == nil {
		t.Fatal("the metadata file itself should fail: Load takes a directory")
	}
	if _, err := Load(t.TempDir()); err == nil || !strings.Contains(err.Error(), "no "+MetaFile) {
		t.Fatalf("empty parent: got %v", err)
	}
	if _, err := Load(filepath.Join(parent, "absent")); err == nil {
		t.Fatal("missing path should fail")
	}

	commit(t, filepath.Join(parent, "us-east1-topology"))
	if _, err := Load(parent); err == nil || !strings.Contains(err.Error(), "pass one directly") {
		t.Fatalf("ambiguous parent: got %v", err)
	}
}

// TestWriterRefusals pins the writer's error paths: a nil record log, an
// uncreatable directory, a commit into a directory that has been yanked
// out from under the writer (atomicWrite's temp-file failure) and an
// append to a sidecar that has. No commit, failed or not, leaves a file
// open: the writer holds no descriptor between commits.
func TestWriterRefusals(t *testing.T) {
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			return -1 // no /proc: the count is not checked
		}
		return len(fds)
	}
	open := openFiles()
	defer func() {
		if now := openFiles(); now != open {
			t.Errorf("%d files open after the commits, %d before", now, open)
		}
	}()

	if _, err := NewWriter(t.TempDir(), Campaign{}, nil); err == nil {
		t.Fatal("nil record log should be refused")
	}

	blocked := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocked, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewWriter(filepath.Join(blocked, "sub"), Campaign{}, newTestLog(t, nil)); err == nil {
		t.Fatal("uncreatable directory should be refused")
	}

	dir := filepath.Join(t.TempDir(), "ck")
	w, err := NewWriter(dir, Campaign{}, newTestLog(t, testRecords(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(orchestrator.Progress{NextHour: 1}); err == nil {
		t.Fatal("commit into a removed directory should fail")
	}

	// Blocks seal every 4,096 records: the first commit creates the
	// sidecar, the second appends to it, the third finds it gone.
	ms := testRecords(3 * 4096)
	dir = t.TempDir()
	log := analysis.NewRecordLog()
	if w, err = NewWriter(dir, Campaign{}, log); err != nil {
		t.Fatal(err)
	}
	commitAt(t, w, log, ms, 1, 4096, 2*4096)
	if err := os.Remove(filepath.Join(dir, RecordsFile)); err != nil {
		t.Fatal(err)
	}
	for _, m := range ms[log.Len():] {
		log.Append(m)
	}
	if err := w.Commit(campaignProgress(3, len(ms))); err == nil {
		t.Fatal("an append to a removed sidecar should fail")
	}
}

// TestReplayTruncatedStream pins Replay's own refusal: metadata demanding
// more records than the loaded sidecar stream can deliver. (Load catches
// this up front; the check in Replay guards the invariant independently.)
func TestReplayTruncatedStream(t *testing.T) {
	ck := &Checkpoint{
		Meta: Meta{Version: Version, NumRecords: 10},
		log:  newTestLog(t, testRecords(5)),
	}
	err := ck.Replay(func(analysis.Measurement) {})
	if err == nil || !strings.Contains(err.Error(), "ended at 5 of 10") {
		t.Fatalf("got %v", err)
	}
}

// TestLoadRejectsBadCheckpoints pins the refusal paths: wrong format
// version, unparsable metadata, a negative record count (which used to
// load and replay nothing, silently dropping every checkpointed hour from
// the resumed output), a missing records sidecar — and, at Resume, a
// snapshot whose record count is not its completed-test count, and a
// second resume of one checkpoint.
func TestLoadRejectsBadCheckpoints(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, Campaign{Kind: "topology"}, newTestLog(t, testRecords(10)))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(orchestrator.Progress{NextHour: 3}); err != nil {
		t.Fatal(err)
	}

	metaPath := filepath.Join(dir, MetaFile)
	good, err := os.ReadFile(metaPath)
	if err != nil {
		t.Fatal(err)
	}
	// doctor writes the good metadata with each old → new edit applied.
	doctor := func(edits ...string) {
		t.Helper()
		bad := string(good)
		for i := 0; i < len(edits); i += 2 {
			if !strings.Contains(bad, edits[i]) {
				t.Fatalf("test assumption broken: %s not found in metadata", edits[i])
			}
			bad = strings.Replace(bad, edits[i], edits[i+1], 1)
		}
		if err := os.WriteFile(metaPath, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	doctor(`"version":3`, `"version":99`)
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("future version: got %v", err)
	}
	// An older version is refused by name before anything else it states
	// is looked at; at the current one, the count is held to the records.
	for _, version := range []string{"2", "1"} {
		doctor(`"numRecords":10`, `"numRecords":-5`, `"version":3`, `"version":`+version)
		if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "format version "+version+",") {
			t.Fatalf("negative record count at version %s: got %v", version, err)
		}
	}
	doctor(`"numRecords":10`, `"numRecords":-5`)
	if _, err := Load(dir); err == nil || !strings.Contains(err.Error(), "metadata expects -5") {
		t.Fatalf("negative record count: got %v", err)
	}

	if err := os.WriteFile(metaPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("garbage metadata should not load")
	}

	// The snapshot loads — a checkpoint can be read without being a
	// campaign's — but it claims 10 records for 0 completed tests, so no
	// campaign resumes from it.
	if err := os.WriteFile(metaPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	ck, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Resume(Campaign{}); err == nil || !strings.Contains(err.Error(), "10 records for 0 completed tests") {
		t.Fatalf("records ≠ tests: got %v", err)
	}
	ck.Meta.Progress.Report.Tests = 10
	if _, _, err := ck.Resume(Campaign{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ck.Resume(Campaign{}); err == nil {
		t.Fatal("a checkpoint resumed twice")
	}
	if err := ck.Replay(func(analysis.Measurement) {}); err == nil {
		t.Fatal("a resumed checkpoint replayed the log it handed over")
	}

	if err := os.Remove(filepath.Join(dir, RecordsFile)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("missing records sidecar should not load")
	}
}
