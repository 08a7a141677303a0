package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ManifestFile is the command-level manifest a checkpointing command
// (campaign, report, costs) writes at the root of its -checkpoint-dir. Each
// campaign of the command checkpoints independently into its own
// <region>-<kind> subdirectory; the manifest records the command identity
// and the full planned campaign set, so `clasp resume` can rebuild the
// engine, skip the campaigns whose checkpoints are already at their final
// watermark, resume the partial ones, and run the never-started ones — in
// other words, re-enter the command's scheduler mid-set.
const ManifestFile = "command.json"

// ManifestVersion is the manifest format version.
const ManifestVersion = 1

// Manifest is the command.json payload.
type Manifest struct {
	Version int `json:"version"`
	// Command is the CLI command the checkpoint set belongs to:
	// "campaign", "report" or "costs".
	Command string `json:"command"`
	// Artifact is the report target ("all", "fig2", ...); empty for the
	// other commands.
	Artifact string `json:"artifact,omitempty"`
	// Days / MinSamples are the command-level campaign shape flags.
	Days       int `json:"days"`
	MinSamples int `json:"minSamples,omitempty"`
	// Identity is the engine identity every campaign of the set shares.
	Identity
	// Campaigns is the full planned campaign set in plan order. Resume
	// walks it in order, so a fresh run and a resumed run schedule the
	// remaining work identically.
	Campaigns []Campaign `json:"campaigns"`
}

// CampaignDir returns the subdirectory (relative to the manifest's
// directory) a campaign of the set checkpoints into: <region>-<kind>.
func CampaignDir(camp Campaign) string {
	return camp.Region + "-" + camp.Kind
}

// WriteManifest commits the manifest into dir by atomic rename, creating
// the directory if needed. It is written once, before any campaign starts,
// so a kill at any later point leaves a loadable manifest behind.
func WriteManifest(dir string, m Manifest) error {
	m.Version = ManifestVersion
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	return atomicWrite(filepath.Join(dir, ManifestFile), func(f *os.File) error {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(m)
	}, nil)
}

// LoadManifest reads the command manifest under dir; a dir without one
// fails naming the file. A manifest whose shape the CLI would refuse —
// days below 1, negative minSamples, no campaigns, a campaign of no known
// kind or below one day — fails here, naming every bad field, not later in
// the resumed run.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("checkpoint: parsing %s: %w", filepath.Join(dir, ManifestFile), err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("checkpoint: %s has manifest version %d, want %d", filepath.Join(dir, ManifestFile), m.Version, ManifestVersion)
	}
	var bad []string
	if m.Days < 1 {
		bad = append(bad, fmt.Sprintf("days: must be at least 1, got %d", m.Days))
	}
	if m.MinSamples < 0 {
		bad = append(bad, fmt.Sprintf("minSamples: must be non-negative, got %d", m.MinSamples))
	}
	if len(m.Campaigns) == 0 {
		bad = append(bad, "campaigns: lists none")
	}
	for i, c := range m.Campaigns {
		if c.Kind != "topology" && c.Kind != "differential" {
			bad = append(bad, fmt.Sprintf("campaigns[%d].kind: must be topology or differential, got %q", i, c.Kind))
		}
		if c.Days < 1 {
			bad = append(bad, fmt.Sprintf("campaigns[%d].days: must be at least 1, got %d", i, c.Days))
		}
	}
	if len(bad) > 0 {
		return nil, fmt.Errorf("checkpoint: %s: %s", filepath.Join(dir, ManifestFile), strings.Join(bad, "; "))
	}
	return &m, nil
}

// LoadCampaign loads one campaign's checkpoint from its subdirectory of a
// command checkpoint set. It returns (nil, nil) when the campaign never
// checkpointed (killed before its first commit) — the resume path then
// runs it from scratch.
func LoadCampaign(dir string, camp Campaign) (*Checkpoint, error) {
	sub := filepath.Join(dir, CampaignDir(camp))
	if _, err := os.Stat(filepath.Join(sub, MetaFile)); os.IsNotExist(err) {
		return nil, nil
	}
	return Load(sub)
}
