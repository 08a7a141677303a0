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

// TestLoadManifestAbsent: a directory without a command.json is no
// command's checkpoint set, and loading it fails naming the file.
func TestLoadManifestAbsent(t *testing.T) {
	m, err := LoadManifest(t.TempDir())
	if err == nil || !strings.Contains(err.Error(), ManifestFile) {
		t.Fatalf("LoadManifest on empty dir = %+v, %v; want an error naming %s", m, err, ManifestFile)
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

// TestLoadManifestRefusesBadShape: a command.json the CLI could not have
// written — days below 1, negative minSamples, no campaigns, a campaign of
// no known kind or below one day — fails at load, naming the field. Before,
// `clasp resume` adopted such a manifest, skipped finished campaigns and
// failed later on a watermark that no longer fit the campaign.
func TestLoadManifestRefusesBadShape(t *testing.T) {
	valid := func() Manifest {
		return Manifest{Command: "report", Artifact: "fig5", Days: 2, MinSamples: 6, Campaigns: []Campaign{
			{Kind: "topology", Region: "us-west1", Days: 2},
			{Kind: "differential", Region: "europe-west1", Days: 2, MinSamples: 6},
		}}
	}
	for _, tc := range []struct {
		want string
		bad  func(*Manifest)
	}{
		{"days: must be at least 1, got 0", func(m *Manifest) { m.Days = 0 }},
		{"days: must be at least 1, got -3", func(m *Manifest) { m.Days = -3 }},
		{"minSamples: must be non-negative, got -5", func(m *Manifest) { m.MinSamples = -5 }},
		{"campaigns: lists none", func(m *Manifest) { m.Campaigns = nil }},
		{`campaigns[1].kind: must be topology or differential, got "bogus"`, func(m *Manifest) { m.Campaigns[1].Kind = "bogus" }},
		{"campaigns[0].days: must be at least 1, got 0", func(m *Manifest) { m.Campaigns[0].Days = 0 }},
	} {
		dir := t.TempDir()
		m := valid()
		tc.bad(&m)
		if err := WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		if got, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LoadManifest with %s = %+v, %v; want an error naming it", tc.want, got, err)
		}
	}
	dir := t.TempDir()
	if err := WriteManifest(dir, valid()); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err != nil {
		t.Fatalf("LoadManifest of a valid manifest: %v", err)
	}
}

// FuzzLoadManifest feeds arbitrary bytes to LoadManifest as command.json. It
// must never panic, and a manifest it accepts must have the shape the CLI
// writes (checked here independently) and survive a write/load round trip.
// The checked-in corpus holds a real manifest and one of each refusal.
func FuzzLoadManifest(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, ManifestFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := LoadManifest(dir)
		if err != nil {
			return
		}
		if m == nil || m.Version != ManifestVersion || m.Days < 1 || m.MinSamples < 0 || len(m.Campaigns) == 0 {
			t.Fatalf("accepted a manifest of the wrong shape: %+v", m)
		}
		for _, c := range m.Campaigns {
			if c.Kind != "topology" && c.Kind != "differential" || c.Days < 1 {
				t.Fatalf("accepted a manifest with campaign %+v", c)
			}
		}
		again := filepath.Join(t.TempDir(), "again")
		if err := WriteManifest(again, *m); err != nil {
			t.Fatal(err)
		}
		m2, err := LoadManifest(again)
		if err != nil {
			t.Fatalf("an accepted manifest, written back, does not load: %v", err)
		}
		a, _ := json.Marshal(m)
		b, _ := json.Marshal(m2)
		if string(a) != string(b) {
			t.Fatalf("round trip changed the manifest:\n%s\n%s", a, b)
		}
	})
}
