package checkpoint

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestManifestRoundTrip pins the command.json contract: every identity
// field a resume needs to rebuild the engine and the full campaign set
// survive a write/load cycle unchanged.
func TestManifestRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ck")
	man := Manifest{
		Command:    "report",
		Artifact:   "all",
		Days:       2,
		MinSamples: 6,
		Identity: Identity{
			Seed:            3,
			Scale:           0.1,
			FaultProfile:    "flaky-vm",
			CaptureEvery:    4,
			TracerouteEvery: 8,
			CheckpointEvery: 1,
		},
		Campaigns: []Campaign{
			{Kind: "topology", Region: "us-west1", Days: 2, Identity: Identity{Seed: 3, Scale: 0.1}},
			{Kind: "differential", Region: "europe-west1", Days: 2, MinSamples: 6, Identity: Identity{Seed: 3, Scale: 0.1}},
		},
	}
	if err := WriteManifest(dir, man); err != nil {
		t.Fatalf("WriteManifest: %v", err)
	}
	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatalf("LoadManifest: %v", err)
	}
	if got == nil {
		t.Fatal("LoadManifest returned nil for a written manifest")
	}
	if got.Version != ManifestVersion {
		t.Errorf("Version = %d, want %d", got.Version, ManifestVersion)
	}
	want := man
	want.Version = ManifestVersion
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(&want)
	if string(gotJSON) != string(wantJSON) {
		t.Errorf("manifest drifted through the round trip:\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestLoadManifestAbsent pins the fallback contract: a directory without a
// command.json loads as (nil, nil), so `clasp resume` can tell a
// single-campaign checkpoint from a command set without extra probing.
func TestLoadManifestAbsent(t *testing.T) {
	m, err := LoadManifest(t.TempDir())
	if err != nil {
		t.Fatalf("LoadManifest on empty dir: %v", err)
	}
	if m != nil {
		t.Fatalf("LoadManifest on empty dir = %+v, want nil", m)
	}
}

// TestLoadManifestVersionMismatch: a future-format manifest must refuse to
// load rather than resume with misread identity.
func TestLoadManifestVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	raw := []byte(`{"version": 99, "command": "report", "campaigns": []}`)
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadManifest(dir)
	if err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("LoadManifest on version 99 = %v, want a version error", err)
	}
}

// TestLoadCampaignAbsent: a campaign of the set that never checkpointed
// (killed before its first commit) loads as (nil, nil) — the resume path
// then runs it from scratch.
func TestLoadCampaignAbsent(t *testing.T) {
	camp := Campaign{Kind: "topology", Region: "us-west1", Days: 2}
	ck, err := LoadCampaign(t.TempDir(), camp)
	if err != nil {
		t.Fatalf("LoadCampaign with no subdirectory: %v", err)
	}
	if ck != nil {
		t.Fatal("LoadCampaign with no subdirectory returned a checkpoint")
	}
}

// TestCampaignDirLayout pins the per-campaign subdirectory naming the
// kill cells of cmd/clasp's contract test and the skip messages both key on.
func TestCampaignDirLayout(t *testing.T) {
	got := CampaignDir(Campaign{Kind: "differential", Region: "europe-west1"})
	if got != "europe-west1-differential" {
		t.Fatalf("CampaignDir = %q, want %q", got, "europe-west1-differential")
	}
}
