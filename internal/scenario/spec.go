// Package scenario is CLASP's declarative campaign layer: a JSON scenario
// spec covering the knobs a campaign is assembled from (topology scale,
// seed, regions, days, tiers via campaign kinds, parallelism, fault
// profile, capture/traceroute cadence, and which analysis artifacts to
// emit), a strict parser with line-level errors, a runner that executes a
// spec against a fully wired platform, and a fleet mode that runs many
// scenarios concurrently over one shared warmed substrate.
//
// Every scenario doubles as a regression pin: the catalog under
// examples/scenarios/ keeps a golden report per scenario, and the
// table-driven golden test (TestCatalogGoldens) fails on any byte of
// drift. The paper-repro scenario reproduces
// paperscale_report.txt exactly.
package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// Spec is one declarative scenario. The zero value of every optional field
// means "use the platform default", mirroring the clasp CLI flags, so a
// minimal spec is just a name plus campaigns or artifacts.
type Spec struct {
	// Name identifies the scenario (lowercase letters, digits, dashes).
	// Catalog scenarios use it to locate their golden report.
	Name string `json:"name"`
	// Description is free-form documentation, not interpreted.
	Description string `json:"description,omitempty"`
	// Options carries the run knobs under their spec keys — seed,
	// parallelism, faultProfile, captureEvery, tracerouteEvery, maxMemoryMB,
	// spillDir; core.Options documents and validates them. The scale is set
	// under topology, and the checkpoint knobs have no key: a scenario has
	// no resume.
	core.Options
	// Topology sets the synthetic-Internet knobs.
	Topology TopologySpec `json:"topology,omitempty"`
	// Days is the default campaign length in virtual days (default 30);
	// individual campaigns may override it.
	Days int `json:"days,omitempty"`
	// MinSamples is the differential-scan tuple threshold (default: scales
	// with the topology, 100 at paper scale — the CLI's -samples rule).
	MinSamples int `json:"minSamples,omitempty"`
	// Campaigns lists measurement campaigns to run, in order.
	Campaigns []CampaignSpec `json:"campaigns,omitempty"`
	// Artifacts lists paper artifacts to regenerate after the campaigns
	// (see Artifacts() for the names; "all" expands to every one).
	Artifacts []string `json:"artifacts,omitempty"`
}

// TopologySpec holds the topology-generation knobs.
type TopologySpec struct {
	// Scale sizes the synthetic Internet (1.0 = paper scale; default 0.25).
	Scale float64 `json:"scale,omitempty"`
	// PaperScale is shorthand for Scale: 1.0; setting both is an error.
	PaperScale bool `json:"paperScale,omitempty"`
}

// CampaignSpec is one measurement campaign of a scenario.
type CampaignSpec struct {
	// Kind selects the selection method and tier set: "topology" measures
	// the topology-selected servers over the premium tier; "differential"
	// measures the differential-selected servers over both tiers.
	Kind string `json:"kind"`
	// Regions to run the campaign in, in order.
	Regions []string `json:"regions"`
	// Days overrides the spec-level campaign length when positive.
	Days int `json:"days,omitempty"`
	// CongestionReport controls whether the §3.3 congestion report is
	// rendered after each region's campaign (default true for topology
	// campaigns, false for differential ones).
	CongestionReport *bool `json:"congestionReport,omitempty"`
	// TierComparison controls whether the §4.1 premium-vs-standard summary
	// is rendered (default true for differential campaigns; invalid for
	// topology campaigns, which measure one tier).
	TierComparison *bool `json:"tierComparison,omitempty"`
}

// Campaign kinds.
const (
	KindTopology     = "topology"
	KindDifferential = "differential"
)

// options resolves the spec into engine options: the topology knobs folded
// into Scale, defaults applied.
func (s *Spec) options() core.Options {
	o := s.Options
	o.Scale = s.Topology.Scale
	if s.Topology.PaperScale {
		o.Scale = 1.0
	}
	return o.WithDefaults()
}

// days returns the resolved default campaign length.
func (s *Spec) days() int {
	if s.Days == 0 {
		return 30
	}
	return s.Days
}

// minSamples resolves the differential-scan threshold, defaulting exactly
// like the CLI's -samples.
func (s *Spec) minSamples() int {
	if s.MinSamples > 0 {
		return s.MinSamples
	}
	return core.DefaultMinSamples(s.options().Scale)
}

// renderCongestion resolves the campaign's congestion-report switch.
func (c *CampaignSpec) renderCongestion() bool {
	if c.CongestionReport != nil {
		return *c.CongestionReport
	}
	return c.Kind == KindTopology
}

// renderTiers resolves the campaign's tier-comparison switch.
func (c *CampaignSpec) renderTiers() bool {
	if c.TierComparison != nil {
		return *c.TierComparison
	}
	return c.Kind == KindDifferential
}

// ParseSpec parses and validates one scenario spec. Unknown fields, syntax
// errors and type mismatches are reported with the offending line and
// column of src; semantic problems name the field. name is used only for
// error messages (typically the file path).
func ParseSpec(src []byte, name string) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(src))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, specError(src, name, dec, err)
	}
	// A spec is one JSON document; trailing garbage is a mistake. Report it
	// at the end of the document proper, whatever the garbage parses as.
	if end := dec.InputOffset(); dec.More() || dec.Decode(new(json.RawMessage)) != io.EOF {
		line, col := lineCol(src, end)
		return nil, fmt.Errorf("%s:%d:%d: trailing data after the spec document", name, line, col)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return &s, nil
}

// specError attaches src line/column information to a decoder error.
func specError(src []byte, name string, dec *json.Decoder, err error) error {
	off := dec.InputOffset()
	var serr *json.SyntaxError
	var terr *json.UnmarshalTypeError
	switch {
	case errors.As(err, &serr):
		off = serr.Offset
	case errors.As(err, &terr):
		off = terr.Offset
	default:
		// Unknown-field errors surface only once the enclosing object is
		// consumed; point at the field itself instead of the closing brace.
		if field, ok := strings.CutPrefix(err.Error(), `json: unknown field "`); ok {
			field = strings.TrimSuffix(field, `"`)
			if i := bytes.Index(src, []byte(`"`+field+`"`)); i >= 0 {
				off = int64(i)
			}
		}
	}
	line, col := lineCol(src, off)
	return fmt.Errorf("%s:%d:%d: %w", name, line, col, err)
}

// lineCol converts a byte offset into 1-based line and column numbers.
func lineCol(src []byte, off int64) (line, col int) {
	if off < 0 {
		off = 0
	}
	if off > int64(len(src)) {
		off = int64(len(src))
	}
	line, col = 1, 1
	for _, b := range src[:off] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return line, col
}

// LoadFile reads and parses one scenario spec file.
func LoadFile(path string) (*Spec, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return ParseSpec(src, path)
}

// validName constrains scenario names to safe slug form (they name golden
// files and appear in fleet banners).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
		case r == '-' && i > 0 && i < len(name)-1:
		default:
			return false
		}
	}
	return true
}

// knownRegions is the static region set of the synthetic Internet.
func knownRegions() map[string]bool {
	out := make(map[string]bool)
	for _, r := range topology.Regions() {
		out[r.Name] = true
	}
	return out
}

// Validate checks the spec's semantic constraints. All problems are
// reported at once (joined), each naming the offending field.
func (s *Spec) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf(format, args...))
	}
	if !validName(s.Name) {
		bad("name: %q is not a valid scenario name (want lowercase letters, digits and interior dashes)", s.Name)
	}
	if s.Topology.Scale < 0 {
		bad("topology.scale: must be positive, got %v", s.Topology.Scale)
	}
	if s.Topology.PaperScale && s.Topology.Scale != 0 {
		bad("topology: scale and paperScale are mutually exclusive")
	}
	if s.Days < 0 {
		bad("days: must be non-negative, got %d", s.Days)
	}
	if s.MinSamples < 0 {
		bad("minSamples: must be non-negative, got %d", s.MinSamples)
	}
	if err := s.Options.Validate(); err != nil {
		errs = append(errs, err)
	}
	if len(s.Campaigns) == 0 && len(s.Artifacts) == 0 {
		bad("spec runs nothing: want at least one campaign or artifact")
	}
	regions := knownRegions()
	for i := range s.Campaigns {
		c := &s.Campaigns[i]
		field := fmt.Sprintf("campaigns[%d]", i)
		switch c.Kind {
		case KindTopology, KindDifferential:
		default:
			bad("%s.kind: %q is not a campaign kind (want %s or %s)", field, c.Kind, KindTopology, KindDifferential)
		}
		if len(c.Regions) == 0 {
			bad("%s.regions: want at least one region", field)
		}
		for _, r := range c.Regions {
			if !regions[r] {
				bad("%s.regions: unknown region %q (have %s)", field, r, strings.Join(regionNames(regions), ", "))
			}
		}
		if c.Days < 0 {
			bad("%s.days: must be non-negative, got %d", field, c.Days)
		}
		if c.Kind == KindTopology && c.TierComparison != nil && *c.TierComparison {
			bad("%s.tierComparison: topology campaigns measure one tier; use a differential campaign", field)
		}
	}
	known := knownArtifacts()
	for i, a := range s.Artifacts {
		if !known[a] {
			bad("artifacts[%d]: unknown artifact %q (have %s)", i, a, strings.Join(Artifacts(), ", "))
		}
	}
	return errors.Join(errs...)
}

// regionNames renders the known region set, sorted, for error messages.
func regionNames(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	sort.Strings(out)
	return out
}
