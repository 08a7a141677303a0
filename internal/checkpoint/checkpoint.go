// Package checkpoint persists a running campaign's progress so a killed
// process can resume and finish with byte-identical output. A checkpoint
// is a directory holding two files:
//
//	records.clog    the campaign's sealed record blocks, append-only: the
//	                CLRL0002 frame file (analysis.RecordLog.AppendFrames)
//	checkpoint.json the commit point: campaign identity (enough to rebuild
//	                the engine), the orchestrator Progress snapshot,
//	                NumRecords, SealedBytes — how much of the sidecar the
//	                snapshot covers — and the unsealed tail (fewer than
//	                4,096 records) with the region table it is coded
//	                against (analysis.RecordLog.EncodeTail)
//
// Commit appends the frames of the blocks sealed since the last commit at
// the sidecar's end and syncs it — a commit that sealed none leaves the
// file alone — then replaces checkpoint.json by atomic rename, the one
// commit point. So a commit writes what its rounds added, not the campaign
// so far. A kill before the rename (the block-flush kill point) leaves
// appended bytes past the old SealedBytes: Load ignores them and Resume
// truncates them before anything is appended after the snapshot, which is
// the partial-commit dedupe. Nothing a live checkpoint.json references is
// ever overwritten; that is why the tail lives in the metadata and not at
// the end of the sidecar. A writer's first commit creates the sidecar by temp
// file and rename, so it supersedes any checkpoint the directory held.
//
// Resume adopts the loaded blocks byte for byte and puts the tail back
// into the log's tail (analysis.RecordLog.Adopt), so the resumed campaign
// seals the blocks an uninterrupted run seals and its writer keeps
// appending to the same file. A version 1 checkpoint (a CLRL0001 sidecar
// holding blocks and tail, renamed before its metadata, so possibly ahead
// of it) reads through analysis.ReadRecordLog into the same adopt step;
// its resumed run's first commit rewrites the sidecar as CLRL0002. That
// commit replaces the file the version 1 metadata names, so a kill between
// its two renames loses the version 1 checkpoint.
//
// Everything beyond the checkpoint is re-derived on resume, because the
// engine is deterministic: per-hour test orders, fault decisions and
// measurement results are pure functions of the seed and task coordinates
// (see orchestrator.Progress), so continuing from the checkpointed records
// and re-executing from the watermark reproduces the uninterrupted run
// bit-exactly at any parallelism.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/killpoint"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
)

// File names inside a checkpoint directory.
const (
	MetaFile    = "checkpoint.json"
	RecordsFile = "records.clog"
)

// Version is the checkpoint format version Commit writes. Load also reads
// version 1, the format before the sidecar became append-only.
const Version = 2

// Identity is the part of a run's options (core.Options) that a checkpoint
// and a command manifest record: everything that decides the output bytes —
// seed, scale, fault profile, capture and traceroute cadence — plus the
// checkpoint cadence, so a resumed run keeps committing on the schedule the
// killed run used. A resume rebuilds the engine from it and refuses an
// engine whose identity differs. Parallelism, the memory budget and the
// directories are deliberately absent: they may change across a resume
// without changing output.
type Identity struct {
	Seed int64 `json:"seed"`
	// Scale is the topology scale the engine was built with.
	Scale float64 `json:"scale"`
	// FaultProfile is the canned fault-injection profile name.
	FaultProfile    string `json:"faultProfile,omitempty"`
	CaptureEvery    int    `json:"captureEvery,omitempty"`
	TracerouteEvery int    `json:"tracerouteEvery,omitempty"`
	// CheckpointEvery is the commit cadence in rounds.
	CheckpointEvery int `json:"checkpointEvery,omitempty"`
}

// Campaign identifies the campaign a checkpoint belongs to: the run's
// identity plus the campaign's shape — everything `clasp resume` needs to
// rebuild the engine and re-run the (deterministic) server selection.
type Campaign struct {
	// Kind is the selection method: "topology" or "differential".
	Kind   string `json:"kind"`
	Region string `json:"region"`
	Days   int    `json:"days"`
	Identity
	// MinSamples is the differential-scan threshold (differential only).
	MinSamples int `json:"minSamples,omitempty"`
}

// Meta is the checkpoint.json payload.
type Meta struct {
	Version  int      `json:"version"`
	Campaign Campaign `json:"campaign"`
	// NumRecords is how many records the snapshot covers: the sealed
	// blocks in the first SealedBytes of the sidecar plus the tail. (A
	// version 1 sidecar may hold more; they are dropped.)
	NumRecords int `json:"numRecords"`
	// Progress is the orchestrator's cross-round state at the watermark.
	Progress orchestrator.Progress `json:"progress"`

	// SealedBytes is the sidecar length the snapshot covers; bytes past it
	// are a killed commit's append.
	SealedBytes int64 `json:"sealedBytes"`
	// Regions is the region table the sealed blocks and the tail are coded
	// against.
	Regions []string `json:"regions,omitempty"`
	// TailRecords and Tail are the unsealed records, as one block payload.
	TailRecords int    `json:"tailRecords,omitempty"`
	Tail        []byte `json:"tail,omitempty"`
}

// Writer commits checkpoints for one campaign into one directory. It is
// driven from the campaign goroutine (orchestrator.Config.OnCheckpoint)
// and is not safe for concurrent use. It holds no open file between
// commits.
type Writer struct {
	dir  string
	camp Campaign
	log  *analysis.RecordLog

	// The sidecar as the last commit left it: the magic and the frames of
	// the log's first blocks sealed blocks, size bytes in all. blocks is
	// -1 until a first commit creates the file.
	blocks int
	size   int64
	buf    []byte // frame scratch, reused across commits
}

// NewWriter prepares a checkpoint directory for a campaign whose record
// stream accumulates in log — the campaign's own RecordLog, which the
// caller keeps appending to between commits. The directory is created if
// needed; an existing checkpoint in it is superseded at the first Commit.
func NewWriter(dir string, camp Campaign, log *analysis.RecordLog) (*Writer, error) {
	if log == nil {
		return nil, fmt.Errorf("checkpoint: nil record log")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{dir: dir, camp: camp, log: log, blocks: -1}, nil
}

// Commit durably records a progress snapshot: the blocks sealed since the
// last commit go to the sidecar, then the metadata is written to a temp
// file and renamed over the previous one. The record log must already
// contain every record of the completed rounds p covers (the orchestrator
// emits before it checkpoints), so NumRecords is simply the log's length.
func (w *Writer) Commit(p orchestrator.Progress) error {
	if err := w.appendRecords(); err != nil {
		return err
	}
	regions, tailN, tail := w.log.EncodeTail()
	meta := Meta{
		Version:     Version,
		Campaign:    w.camp,
		NumRecords:  w.log.Len(),
		Progress:    p,
		SealedBytes: w.size,
		Regions:     regions,
		TailRecords: tailN,
		Tail:        tail,
	}
	// Compact, not indented: an indent pass rescans every byte of the
	// tail's base64, and was most of a commit's CPU time when it ran.
	return atomicWrite(filepath.Join(w.dir, MetaFile), func(f *os.File) error {
		return json.NewEncoder(f).Encode(meta)
	}, func() {
		// Crash-test point: the round's blocks are appended and synced but
		// the metadata is not yet renamed — a kill here must leave the
		// previous checkpoint loadable.
		killpoint.Maybe("block-flush", p.NextHour-1)
	})
}

// appendRecords brings the sidecar up to the log's sealed blocks. The
// first commit writes the file whole, by temp file and rename; later ones
// append the frames sealed since the last and sync.
func (w *Writer) appendRecords() error {
	sealed, first := w.log.SealedBlocks(), w.blocks < 0
	if !first && sealed == w.blocks {
		return nil
	}
	buf, from := w.buf[:0], w.blocks
	if first {
		buf, from = append(buf, analysis.FramesMagic...), 0
	}
	buf, err := w.log.AppendFrames(buf, from, sealed)
	w.buf = buf
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	path := filepath.Join(w.dir, RecordsFile)
	if first {
		err = atomicWrite(path, func(f *os.File) error {
			_, err := f.Write(buf)
			return err
		}, nil)
	} else {
		err = appendAt(path, buf, w.size)
	}
	if err != nil {
		return err
	}
	w.blocks, w.size = sealed, w.size+int64(len(buf))
	return nil
}

// appendAt writes buf into the file at path at offset off and syncs it.
func appendAt(path string, buf []byte, off int64) error {
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	_, err = f.WriteAt(buf, off)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("checkpoint: appending to %s: %w", filepath.Base(path), err)
	}
	return nil
}

// atomicWrite writes via fill into a temp file in path's directory, syncs,
// runs beforeRename (the kill-point hook) and renames over path, so path
// always holds either the previous complete version or the new one.
func atomicWrite(path string, fill func(*os.File) error, beforeRename func()) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", filepath.Base(path), err)
	}
	if err := fill(f); err != nil {
		return cleanup(err)
	}
	if err := f.Sync(); err != nil {
		return cleanup(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: writing %s: %w", filepath.Base(path), err)
	}
	if beforeRename != nil {
		beforeRename()
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: committing %s: %w", filepath.Base(path), err)
	}
	return nil
}

// Checkpoint is a loaded checkpoint, ready to replay or resume.
type Checkpoint struct {
	// Dir is the directory the checkpoint was loaded from; a resumed
	// campaign keeps committing new checkpoints there.
	Dir  string
	Meta Meta

	log *analysis.RecordLog // the snapshot's records, adopted; nil once resumed
}

// Load reads a checkpoint. path may be the checkpoint.json file itself, a
// directory containing one, or a parent directory (such as the
// -checkpoint-dir of a single-campaign run) exactly one of whose
// subdirectories contains one. Every block is validated on the way in, and
// every count and length the metadata states is checked against the bytes
// that back it, so a corrupt checkpoint fails here.
func Load(path string) (*Checkpoint, error) {
	metaPath, err := findMeta(path)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(metaPath)
	raw, err := os.ReadFile(metaPath)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var meta Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing %s: %w", metaPath, err)
	}
	if meta.Version != 1 && meta.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, want 1 or %d", metaPath, meta.Version, Version)
	}
	if meta.NumRecords < 0 {
		return nil, fmt.Errorf("checkpoint: %s covers %d records", metaPath, meta.NumRecords)
	}
	recordsPath := filepath.Join(dir, RecordsFile)
	file, err := os.ReadFile(recordsPath)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	log, err := readRecords(meta, file)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", recordsPath, err)
	}
	return &Checkpoint{Dir: dir, Meta: meta, log: log}, nil
}

// readRecords rebuilds the snapshot's record log from the sidecar file and
// the metadata, and adopts it at NumRecords.
func readRecords(meta Meta, file []byte) (*analysis.RecordLog, error) {
	var log *analysis.RecordLog
	var err error
	switch {
	case meta.Version == 1:
		// Renamed before its metadata, a version 1 sidecar may run ahead of
		// the snapshot (a kill between the renames) but never behind it:
		// Adopt drops what runs ahead and refuses a shortfall.
		log, err = analysis.ReadRecordLog(bytes.NewReader(file))
	case meta.SealedBytes < int64(len(analysis.FramesMagic)) || meta.SealedBytes > int64(len(file)):
		return nil, fmt.Errorf("metadata covers %d bytes of a %d-byte file", meta.SealedBytes, len(file))
	default:
		log, err = analysis.ReadFrames(file[:meta.SealedBytes], meta.Regions, meta.TailRecords, meta.Tail)
		if err == nil && log.Len() != meta.NumRecords {
			err = fmt.Errorf("sealed blocks and tail hold %d records, metadata expects %d", log.Len(), meta.NumRecords)
		}
	}
	if err == nil {
		err = log.Adopt(meta.NumRecords)
	}
	if err != nil {
		return nil, err
	}
	return log, nil
}

// findMeta resolves the user-supplied path to the checkpoint.json file.
func findMeta(path string) (string, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	if !fi.IsDir() {
		return path, nil
	}
	direct := filepath.Join(path, MetaFile)
	if _, err := os.Stat(direct); err == nil {
		return direct, nil
	}
	entries, err := os.ReadDir(path)
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	var found []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		p := filepath.Join(path, e.Name(), MetaFile)
		if _, err := os.Stat(p); err == nil {
			found = append(found, p)
		}
	}
	sort.Strings(found)
	switch len(found) {
	case 0:
		return "", fmt.Errorf("checkpoint: no %s under %s", MetaFile, path)
	case 1:
		return found[0], nil
	default:
		return "", fmt.Errorf("checkpoint: %d checkpoints under %s (%s ...); pass one directly", len(found), path, filepath.Dir(found[0]))
	}
}

// NumRecords returns how many records Replay will deliver.
func (c *Checkpoint) NumRecords() int { return c.Meta.NumRecords }

// Replay streams the snapshot's records in original emission order. It
// reads the checkpoint without resuming it, and fails once it is resumed.
func (c *Checkpoint) Replay(fn func(analysis.Measurement)) error {
	if c.log == nil {
		return fmt.Errorf("checkpoint: %s was resumed", c.Dir)
	}
	cur := c.log.Cursor()
	n := 0
	for n < c.Meta.NumRecords {
		batch := cur.Next()
		if len(batch) == 0 {
			return fmt.Errorf("checkpoint: record stream ended at %d of %d records", n, c.Meta.NumRecords)
		}
		if rest := c.Meta.NumRecords - n; len(batch) > rest {
			batch = batch[:rest]
		}
		for _, m := range batch {
			fn(m)
		}
		n += len(batch)
	}
	return nil
}

// Resume hands the snapshot's record log to the campaign resuming from
// this checkpoint, with a writer that commits that campaign, identified by
// camp, into Dir: appending to the sidecar where the snapshot ends, once
// Resume has cut what a killed commit appended past it, or, for a version 1
// checkpoint, rewriting it whole at the first commit. The log moves to the
// caller, so a checkpoint resumes once. A campaign's snapshot holds one
// record per completed test, and one that does not is refused: resuming it
// would silently drop or duplicate records.
func (c *Checkpoint) Resume(camp Campaign) (*analysis.RecordLog, *Writer, error) {
	if c.log == nil {
		return nil, nil, fmt.Errorf("checkpoint: %s was already resumed", c.Dir)
	}
	if n, tests := c.Meta.NumRecords, c.Meta.Progress.Report.Tests; n != tests {
		return nil, nil, fmt.Errorf("checkpoint: %s holds %d records for %d completed tests", c.Dir, n, tests)
	}
	w, err := NewWriter(c.Dir, camp, c.log)
	if err != nil {
		return nil, nil, err
	}
	if c.Meta.Version == Version {
		if err := os.Truncate(filepath.Join(c.Dir, RecordsFile), c.Meta.SealedBytes); err != nil {
			return nil, nil, fmt.Errorf("checkpoint: %w", err)
		}
		w.blocks, w.size = c.log.SealedBlocks(), c.Meta.SealedBytes
	}
	log := c.log
	c.log = nil
	return log, w, nil
}
