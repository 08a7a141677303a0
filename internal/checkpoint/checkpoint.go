// Package checkpoint persists a running campaign's progress so a killed
// process can resume and finish with byte-identical output. A checkpoint
// is a directory holding two files, each committed by atomic rename:
//
//	records.clog    the record stream emitted so far, in the RecordLog
//	                columnar format (analysis.RecordLog.WriteTo)
//	checkpoint.json the metadata: campaign identity (enough to rebuild
//	                the engine), the orchestrator Progress snapshot, and
//	                NumRecords — how many records of the sidecar the
//	                snapshot covers
//
// Commit writes the records sidecar first and the metadata second. A kill
// between the two renames therefore leaves new records under old metadata,
// never the reverse: Meta.NumRecords is always ≤ the sidecar's record
// count, and replay simply truncates to NumRecords — that truncation is
// the partial-round dedupe. A kill before either rename (the block-flush
// kill point) leaves the previous checkpoint fully intact.
//
// Everything beyond the checkpoint is re-derived on resume, because the
// engine is deterministic: per-hour test orders, fault decisions and
// measurement results are pure functions of the seed and task coordinates
// (see orchestrator.Progress), so replaying the checkpointed records and
// re-executing from the watermark reproduces the uninterrupted run
// bit-exactly at any parallelism.
package checkpoint

import (
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

// Version is the checkpoint format version; Load rejects anything else.
const Version = 1

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
	// Scale is the topology scale the engine was built with (0 when the
	// topology was injected, which no resume can check).
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
	// NumRecords is how many records of the sidecar this snapshot covers.
	// The sidecar may hold more (a kill between the two Commit renames);
	// replay truncates to this count.
	NumRecords int `json:"numRecords"`
	// Progress is the orchestrator's cross-round state at the watermark.
	Progress orchestrator.Progress `json:"progress"`
}

// Writer commits checkpoints for one campaign into one directory. It is
// driven from the campaign goroutine (orchestrator.Config.OnCheckpoint)
// and is not safe for concurrent use.
type Writer struct {
	dir  string
	camp Campaign
	log  *analysis.RecordLog
}

// NewWriter prepares a checkpoint directory for a campaign whose record
// stream accumulates in log — the campaign's own RecordLog, which the
// caller keeps appending to between commits. The directory is created if
// needed; an existing checkpoint in it is overwritten at the first Commit.
func NewWriter(dir string, camp Campaign, log *analysis.RecordLog) (*Writer, error) {
	if log == nil {
		return nil, fmt.Errorf("checkpoint: nil record log")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Writer{dir: dir, camp: camp, log: log}, nil
}

// Commit durably records a progress snapshot: records sidecar first, then
// metadata, each written to a temp file in the same directory and renamed
// over the previous version. The record log must already contain every
// record of the completed rounds p covers (the orchestrator emits before
// it checkpoints), so NumRecords is simply the log's current length.
func (w *Writer) Commit(p orchestrator.Progress) error {
	if err := w.commitRecords(p.NextHour - 1); err != nil {
		return err
	}
	meta := Meta{
		Version:    Version,
		Campaign:   w.camp,
		NumRecords: w.log.Len(),
		Progress:   p,
	}
	return atomicWrite(filepath.Join(w.dir, MetaFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(meta)
	}, nil)
}

func (w *Writer) commitRecords(hour int) error {
	return atomicWrite(filepath.Join(w.dir, RecordsFile), func(f *os.File) error {
		_, err := w.log.WriteTo(f)
		return err
	}, func() {
		// Crash-test point: the new sidecar is fully written but not yet
		// renamed — a kill here must leave the previous checkpoint intact.
		killpoint.Maybe("block-flush", hour)
	})
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

// Checkpoint is a loaded checkpoint, ready to replay.
type Checkpoint struct {
	// Dir is the directory the checkpoint was loaded from; a resumed
	// campaign keeps committing new checkpoints there.
	Dir  string
	Meta Meta

	log *analysis.RecordLog
}

// Load reads a checkpoint. path may be the checkpoint.json file itself, a
// directory containing one, or a parent directory (such as the
// -checkpoint-dir of a single-campaign run) exactly one of whose
// subdirectories contains one.
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
	if meta.Version != Version {
		return nil, fmt.Errorf("checkpoint: %s has format version %d, want %d", metaPath, meta.Version, Version)
	}
	rf, err := os.Open(filepath.Join(dir, RecordsFile))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	defer rf.Close()
	log, err := analysis.ReadRecordLog(rf)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", filepath.Join(dir, RecordsFile), err)
	}
	// The sidecar commits before the metadata, so it may run ahead of the
	// snapshot (kill between the renames) but never behind it.
	if log.Len() < meta.NumRecords {
		return nil, fmt.Errorf("checkpoint: records sidecar holds %d records, metadata expects %d", log.Len(), meta.NumRecords)
	}
	return &Checkpoint{Dir: dir, Meta: meta, log: log}, nil
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

// Replay streams the snapshot's records — the sidecar truncated to
// Meta.NumRecords — in original emission order. The resume path feeds
// them into the same sinks a live round's emit phase would, rebuilding
// the campaign's record log (which the next checkpoint serialises) and the
// store index in one pass.
func (c *Checkpoint) Replay(fn func(analysis.Measurement)) error {
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
