package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/analysis"
	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/orchestrator"
)

// errKilled is the sentinel a test checkpoint hook returns to abort a
// campaign right after a checkpoint commits — an in-process stand-in for
// SIGKILL that leaves a valid checkpoint on disk (the cross-process kill
// matrix is cmd/clasp's TestDeterminismContract).
var errKilled = errors.New("resume test: simulated kill after checkpoint")

// resume re-enters ck's campaign on eng the way `clasp resume` does: a
// resume scheduler plans it, which checks eng against the checkpoint's
// identity and attaches the checkpoint under eng's CheckpointDir, and runs
// it to completion.
func resume(t *testing.T, eng *CLASP, ck *checkpoint.Checkpoint) (*CampaignResult, error) {
	t.Helper()
	camp := ck.Meta.Campaign
	s := eng.NewResumeScheduler("resume")
	p, err := s.Plan(CampaignRef{Kind: camp.Kind, Region: camp.Region, Days: camp.Days, MinSamples: camp.MinSamples})
	if err != nil {
		return nil, err
	}
	if p.ck == nil || p.ck.Meta.Progress.NextHour != ck.Meta.Progress.NextHour {
		t.Fatalf("the resume scheduler did not attach the checkpoint at hour %d", ck.Meta.Progress.NextHour)
	}
	return s.Run(p)
}

// TestResumeCampaignBitIdentical is the core resume invariant: kill a
// campaign after a mid-run checkpoint, resume it on a fresh engine at a
// DIFFERENT parallelism, and the records and report must match an
// uninterrupted run bit-exactly. Runs fault-free and with the flaky-vm
// profile so breaker state, create-attempt residue and dead-VM slots all
// travel through the checkpoint. Executed under -race in CI, the
// parallelism-4 resume also exercises the replay/emit paths concurrently.
func TestResumeCampaignBitIdentical(t *testing.T) {
	const region, days, stopAfter = "us-west1", 2, 17
	for _, prof := range []string{"none", "flaky-vm"} {
		t.Run(prof, func(t *testing.T) {
			ref, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof})
			if err != nil {
				t.Fatal(err)
			}
			want, err := runTopology(ref, region, days)
			if err != nil {
				t.Fatal(err)
			}

			ckDir := t.TempDir()
			killed, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof, CheckpointDir: ckDir})
			if err != nil {
				t.Fatal(err)
			}
			killed.testCheckpointHook = func(p orchestrator.Progress) error {
				if p.NextHour > stopAfter {
					return errKilled
				}
				return nil
			}
			if _, err := runTopology(killed, region, days); !errors.Is(err, errKilled) {
				t.Fatalf("killed campaign returned %v, want the sentinel", err)
			}

			ck, err := checkpoint.Load(ckDir)
			if err != nil {
				t.Fatal(err)
			}
			if ck.Dir != filepath.Join(ckDir, region+"-topology") {
				t.Fatalf("checkpoint landed in %s", ck.Dir)
			}
			if got := ck.Meta.Progress.NextHour; got <= 0 || got > stopAfter+1 {
				t.Fatalf("checkpoint watermark %d, want in (0, %d]", got, stopAfter+1)
			}

			resumed, err := New(Options{Seed: 3, Scale: 0.1, FaultProfile: prof, Parallelism: 4, CheckpointDir: ckDir})
			if err != nil {
				t.Fatal(err)
			}
			res, err := resume(t, resumed, ck)
			if err != nil {
				t.Fatal(err)
			}

			gotRecs, wantRecs := drainRecords(res), drainRecords(want)
			if len(gotRecs) != len(wantRecs) {
				t.Fatalf("resumed run produced %d records, want %d", len(gotRecs), len(wantRecs))
			}
			for i := range wantRecs {
				if gotRecs[i] != wantRecs[i] {
					t.Fatalf("record %d drifted across kill+resume:\n got: %+v\nwant: %+v", i, gotRecs[i], wantRecs[i])
				}
			}
			gotSeries, _ := res.SeriesAndPartitions(bgp.Premium)
			wantSeries, _ := want.SeriesAndPartitions(bgp.Premium)
			if len(wantSeries) == 0 || !reflect.DeepEqual(gotSeries, wantSeries) {
				t.Fatalf("series drifted across kill+resume (%d vs %d series)", len(gotSeries), len(wantSeries))
			}
			gotFig4, gotErr := Fig4(res, bgp.Premium)
			wantFig4, wantErr := Fig4(want, bgp.Premium)
			if err := errors.Join(gotErr, wantErr); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotFig4, wantFig4) {
				t.Fatal("Fig. 4 drifted across kill+resume")
			}
			gotH := resumed.ComputeHeadlines(map[string]*CampaignResult{region: res}, nil)
			if wantH := ref.ComputeHeadlines(map[string]*CampaignResult{region: want}, nil); gotH != wantH {
				t.Fatalf("headlines drifted across kill+resume:\n got: %+v\nwant: %+v", gotH, wantH)
			}
			gotRep, wantRep := *res.Report, *want.Report
			// CPU peaks depend on goroutine interleaving, not the seed; they
			// are excluded from every durable output for the same reason.
			gotRep.MaxVMCPUUtil, wantRep.MaxVMCPUUtil = 0, 0
			if gotRep != wantRep {
				t.Fatalf("report drifted across kill+resume:\n got: %+v\nwant: %+v", gotRep, wantRep)
			}

			// The resumed run keeps checkpointing into the same directory:
			// its final checkpoint covers the whole campaign.
			final, err := checkpoint.Load(ck.Dir)
			if err != nil {
				t.Fatal(err)
			}
			if final.Meta.Progress.NextHour != days*24 {
				t.Fatalf("final watermark %d, want %d", final.Meta.Progress.NextHour, days*24)
			}
			if final.NumRecords() != want.NumRecords() {
				t.Fatalf("final checkpoint covers %d records, want %d", final.NumRecords(), want.NumRecords())
			}
		})
	}
}

// TestResumeCampaignRejectsMismatchedEngine pins the identity guard: a
// resume on an engine that differs from the checkpoint in any identity
// field must refuse, naming the field, rather than silently produce
// different output. Capture and traceroute cadence are the cases the old
// three-field check let through (Report.Captures/Traceroutes, bucket
// contents and the storage bill then differed from the uninterrupted run).
func TestResumeCampaignRejectsMismatchedEngine(t *testing.T) {
	ckDir := t.TempDir()
	killed, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir})
	if err != nil {
		t.Fatal(err)
	}
	killed.testCheckpointHook = func(orchestrator.Progress) error { return errKilled }
	if _, err := runTopology(killed, "us-west1", 1); !errors.Is(err, errKilled) {
		t.Fatalf("got %v, want the sentinel", err)
	}
	ck, err := checkpoint.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		field string // the identity field the refusal must name
		opts  Options
	}{
		{"Seed", Options{Seed: 4, Scale: 0.1}},
		{"Scale", Options{Seed: 3, Scale: 0.2}},
		{"FaultProfile", Options{Seed: 3, Scale: 0.1, FaultProfile: "flaky-vm"}},
		{"CaptureEvery", Options{Seed: 3, Scale: 0.1, CaptureEvery: 50}},
		{"TracerouteEvery", Options{Seed: 3, Scale: 0.1, TracerouteEvery: 1}},
		{"CheckpointEvery", Options{Seed: 3, Scale: 0.1, CheckpointEvery: 5}},
	} {
		tc.opts.CheckpointDir = ckDir
		eng, err := New(tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := resume(t, eng, ck); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s mismatch: resume returned %v, want a refusal naming the field", tc.field, err)
		}
	}

	// Spellings of one run compare equal: "" is "none" and cadence 0 is
	// every round. A recorded scale of 0 is no wildcard: the engine always
	// builds its topology from its own scale.
	same := &CLASP{Opts: Options{Seed: 3, Scale: 0.1, FaultProfile: "none", CheckpointDir: ckDir, CheckpointEvery: 1}}
	for _, id := range []checkpoint.Identity{
		ck.Meta.Campaign.Identity,
		{Seed: 3, Scale: 0.1},
		{Seed: 3, Scale: 0.1, FaultProfile: "none", CheckpointEvery: 1},
	} {
		if err := same.checkCampaignIdentity(id); err != nil {
			t.Errorf("identity %+v refused: %v", id, err)
		}
	}
	if err := same.checkCampaignIdentity(checkpoint.Identity{Seed: 3}); err == nil || !strings.Contains(err.Error(), "Scale") {
		t.Errorf("scale-0 identity: %v, want a refusal naming Scale", err)
	}

	// ResumeOptions + the runtime knobs is the sanctioned path.
	opts := ResumeOptions(ck.Meta.Campaign.Identity)
	opts.Parallelism, opts.CheckpointDir = 2, ckDir
	eng, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resume(t, eng, ck); err != nil {
		t.Errorf("ResumeOptions-built engine refused: %v", err)
	}

	// An unknown kind in doctored metadata must also refuse.
	ck.Meta.Campaign.Kind = "bogus"
	if _, err := resume(t, eng, ck); err == nil {
		t.Error("bogus kind: resume succeeded, want refusal")
	}
}

// TestCheckpointSidecarIsCampaignLog pins that a checkpointed campaign
// inside its memory budget keeps one record log and that its final
// checkpoint is that log: the sidecar is the frames of the result log's
// sealed blocks byte for byte, the metadata's tail is the log's encoded
// tail, and the two load back to the log's records, each once. runCampaign
// builds no second log to tee records into: it constructs one log or
// adopts the checkpoint's, once each (a shadow log fed the same appends
// would save to the same bytes, so that half is checked on the source).
func TestCheckpointSidecarIsCampaignLog(t *testing.T) {
	const region, days = "us-west1", 2
	ckDir := t.TempDir()
	c, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: ckDir, CheckpointEvery: 6})
	if err != nil {
		t.Fatal(err)
	}
	var res *CampaignResult
	n := spilled(func() { res, err = runTopology(c, region, days) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || res.NumRecords() != res.Report.Tests || res.Log.SealedBlocks() == 0 {
		t.Fatalf("want a resident log holding each of %d tests once in sealed blocks and a tail; %d bytes spilled, %d records, %d blocks",
			res.Report.Tests, n, res.NumRecords(), res.Log.SealedBlocks())
	}
	want, err := res.Log.AppendFrames([]byte(analysis.FramesMagic), 0, res.Log.SealedBlocks())
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(ckDir, region+"-topology", checkpoint.RecordsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("final sidecar (%d bytes) differs from the result log's frames (%d bytes)", len(got), len(want))
	}
	ck, err := checkpoint.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	regions, tailN, tail := res.Log.EncodeTail()
	if m := ck.Meta; m.SealedBytes != int64(len(got)) || m.TailRecords != tailN || tailN == 0 ||
		!bytes.Equal(m.Tail, tail) || !reflect.DeepEqual(m.Regions, regions) {
		t.Fatalf("final metadata covers %d sidecar bytes and a %d-record tail %q; the log has %d bytes of frames and a %d-record tail %q",
			m.SealedBytes, m.TailRecords, m.Regions, len(got), tailN, regions)
	}
	var replayed []analysis.Measurement
	if err := ck.Replay(func(m analysis.Measurement) { replayed = append(replayed, m) }); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, drainRecords(res)) {
		t.Fatalf("the final checkpoint loads %d records that differ from the result's %d", len(replayed), res.NumRecords())
	}

	file, err := parser.ParseFile(token.NewFileSet(), "core.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls := map[string]int{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Name.Name != "runCampaign" {
			continue
		}
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					calls[sel.Sel.Name]++
				}
			}
			return true
		})
	}
	if calls["NewRecordLog"] != 1 || calls["Resume"] != 1 {
		t.Fatalf("runCampaign constructs %d record logs and adopts %d, want exactly 1 of each", calls["NewRecordLog"], calls["Resume"])
	}
}

// TestCommitAppendsOnly pins what a checkpoint commit writes, on a real
// checkpointed campaign at two lengths. Across consecutive commits the
// sidecar stays the same file and only grows: the previous sidecar is a
// byte prefix of the next, each growth is the frames of the blocks sealed
// in between (or nothing), and each commit's metadata covers the whole file
// with every record. So the bytes a campaign writes to checkpoint itself —
// sidecar growth plus every metadata file — grow linearly with its length:
// doubling it at most about doubles them.
func TestCommitAppendsOnly(t *testing.T) {
	const region, short, long = "us-west1", 4, 8
	written := map[int]int64{}
	for _, days := range []int{short, long} {
		dir := t.TempDir()
		c, err := New(Options{Seed: 3, Scale: 0.1, CheckpointDir: dir, CheckpointEvery: 6})
		if err != nil {
			t.Fatal(err)
		}
		ckDir := filepath.Join(dir, region+"-topology")
		sidecar := filepath.Join(ckDir, checkpoint.RecordsFile)
		var prev []byte
		var prevInfo os.FileInfo
		var growths [][]byte
		c.testCheckpointHook = func(p orchestrator.Progress) error {
			raw, err := os.ReadFile(sidecar)
			if err != nil {
				return err
			}
			fi, err := os.Stat(sidecar)
			if err != nil {
				return err
			}
			if prevInfo != nil && !os.SameFile(prevInfo, fi) {
				return fmt.Errorf("hour %d: the sidecar was replaced", p.NextHour)
			}
			if !bytes.HasPrefix(raw, prev) {
				return fmt.Errorf("hour %d: the previous sidecar is not a prefix of the new one", p.NextHour)
			}
			ck, err := checkpoint.Load(ckDir)
			if err != nil {
				return err
			}
			if ck.Meta.SealedBytes != int64(len(raw)) || ck.NumRecords() != p.Report.Tests {
				return fmt.Errorf("hour %d: metadata covers %d of %d sidecar bytes and %d records of %d tests",
					p.NextHour, ck.Meta.SealedBytes, len(raw), ck.NumRecords(), p.Report.Tests)
			}
			meta, err := os.Stat(filepath.Join(ckDir, checkpoint.MetaFile))
			if err != nil {
				return err
			}
			growths = append(growths, raw[len(prev):])
			written[days] += int64(len(raw)-len(prev)) + meta.Size()
			prev, prevInfo = raw, fi
			return nil
		}
		res, err := runTopology(c, region, days)
		if err != nil {
			t.Fatal(err)
		}
		if len(growths) != days*24/6 {
			t.Fatalf("%d days: %d commits, want %d", days, len(growths), days*24/6)
		}
		// Each growth is the frames of the next k blocks in seal order, the
		// first after the magic; together they are every sealed block.
		growths[0] = bytes.TrimPrefix(growths[0], []byte(analysis.FramesMagic))
		blocks, grew := 0, 0
		for i, g := range growths {
			k := 0
			for {
				frames, err := res.Log.AppendFrames(nil, blocks, blocks+k)
				if err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(frames, g) {
					break
				}
				if len(frames) > len(g) || blocks+k == res.Log.SealedBlocks() {
					t.Fatalf("%d days, commit %d: the sidecar grew by %d bytes that are not the frames of the blocks after %d", days, i, len(g), blocks)
				}
				k++
			}
			blocks += k
			if k > 0 {
				grew++
			}
		}
		if blocks != res.Log.SealedBlocks() || grew == 0 || grew == len(growths) {
			t.Fatalf("%d days: %d of %d commits appended %d frames, want all %d sealed blocks, by some commits and not others",
				days, grew, len(growths), blocks, res.Log.SealedBlocks())
		}
	}
	ratio := float64(written[long]) / float64(written[short])
	t.Logf("checkpointing %d days wrote %d bytes, %d days %d: %.2f×", long, written[long], short, written[short], ratio)
	if ratio > 2.2 {
		t.Fatalf("checkpointing %d days wrote %.2f× the bytes of %d days, want ≤ 2.2×", long, ratio, short)
	}
}

// TestStreamingResumeMatchesInMemory pins resume across the memory budget:
// a killed over-budget campaign (store index disabled or not) resumes —
// still over budget, its log spilled at the end — into the same records as
// the unbudgeted reference.
func TestStreamingResumeMatchesInMemory(t *testing.T) {
	// Three days at this scale overflow the 1MB budget on the killed and
	// resumed runs.
	const region, days = "us-west1", 3
	ref, err := New(Options{Seed: 3, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := runTopology(ref, region, days)
	if err != nil {
		t.Fatal(err)
	}

	ckDir := t.TempDir()
	killed, err := New(Options{
		Seed: 3, Scale: 0.1,
		MaxMemoryMB: 1, SpillDir: t.TempDir(),
		CheckpointDir: ckDir, CheckpointEvery: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	killed.testCheckpointHook = func(p orchestrator.Progress) error {
		if p.NextHour > 20 {
			return errKilled
		}
		return nil
	}
	if _, err := runTopology(killed, region, days); !errors.Is(err, errKilled) {
		t.Fatalf("got %v, want the sentinel", err)
	}

	ck, err := checkpoint.Load(ckDir)
	if err != nil {
		t.Fatal(err)
	}
	if every := ck.Meta.Campaign.CheckpointEvery; every != 3 {
		t.Fatalf("checkpoint cadence %d did not travel, want 3", every)
	}
	opts := ResumeOptions(ck.Meta.Campaign.Identity)
	opts.MaxMemoryMB, opts.SpillDir, opts.CheckpointDir = 1, t.TempDir(), ckDir
	resumed, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var res *CampaignResult
	n := spilled(func() { res, err = resume(t, resumed, ck) })
	if err != nil {
		t.Fatal(err)
	}
	defer res.Close()
	if n == 0 {
		t.Fatal("resumed campaign did not honour the memory budget")
	}
	gotRecs, wantRecs := drainRecords(res), drainRecords(want)
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("budgeted resume produced %d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if gotRecs[i] != wantRecs[i] {
			t.Fatalf("record %d drifted across budgeted kill+resume", i)
		}
	}
}

// TestParentCommitCheckpointRefused pins on-disk compatibility across the
// Identity refactor and the refusal of the version 1 checkpoint format.
// testdata/parent-checkpoint is `clasp report fig3 -seed 5 -scale 0.1 -days
// 1 -fault-profile flaky-vm -checkpoint-dir ...` as written by the commit
// before checkpoint.Identity existed, SIGKILLed at round-boundary:2. Its
// command.json omits the default cadence while its checkpoint.json spells
// it 1; both must decode to the same identity. Its campaign checkpoint is
// version 1, which carries no egress bytes, so loading it must fail with an
// error that names the version rather than resume a wrong bill.
func TestParentCommitCheckpointRefused(t *testing.T) {
	dir := "testdata/parent-checkpoint"
	man, err := checkpoint.LoadManifest(dir)
	if err != nil || man == nil {
		t.Fatalf("LoadManifest = %v, %v", man, err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, checkpoint.CampaignDir(man.Campaigns[0]), checkpoint.MetaFile))
	if err != nil {
		t.Fatal(err)
	}
	var meta checkpoint.Meta
	if err := json.Unmarshal(raw, &meta); err != nil {
		t.Fatal(err)
	}
	want := checkpoint.Identity{Seed: 5, Scale: 0.1, FaultProfile: "flaky-vm", CheckpointEvery: 1}
	for name, id := range map[string]checkpoint.Identity{
		"command.json":           man.Identity,
		"command.json campaigns": man.Campaigns[0].Identity,
		"checkpoint.json":        meta.Campaign.Identity,
	} {
		if got := ResumeOptions(id).Identity(); got != want {
			t.Errorf("%s loads to identity %+v, want %+v", name, got, want)
		}
	}
	if ck, err := checkpoint.LoadCampaign(dir, man.Campaigns[0]); err == nil || !strings.Contains(err.Error(), "format version 1,") {
		t.Fatalf("LoadCampaign of a version 1 checkpoint = %v, %v; want an error naming version 1", ck, err)
	}
}
