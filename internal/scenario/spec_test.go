package scenario

import (
	"strings"
	"testing"
)

func TestParseSpecDefaults(t *testing.T) {
	s, err := ParseSpec([]byte(`{"name":"minimal","artifacts":["table1"]}`), "minimal.json")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if got := s.options().Seed; got != 1 {
		t.Errorf("options().Seed = %d, want 1", got)
	}
	if got := s.options().Scale; got != 0.25 {
		t.Errorf("options().Scale = %v, want 0.25", got)
	}
	if got := s.days(); got != 30 {
		t.Errorf("days() = %d, want 30", got)
	}
	// The CLI's -samples rule: int(100*scale), floored at 6.
	if got := s.minSamples(); got != 25 {
		t.Errorf("minSamples() = %d, want 25", got)
	}
	s.Topology.Scale = 0.01
	if got := s.minSamples(); got != 6 {
		t.Errorf("minSamples() at scale 0.01 = %d, want the floor 6", got)
	}
	s.Topology = TopologySpec{PaperScale: true}
	if got := s.options().Scale; got != 1.0 {
		t.Errorf("options().Scale with paperScale = %v, want 1.0", got)
	}
	if got := s.minSamples(); got != 100 {
		t.Errorf("minSamples() at paper scale = %d, want 100", got)
	}
}

func TestParseSpecCampaignSwitchDefaults(t *testing.T) {
	src := `{
		"name": "switches",
		"campaigns": [
			{"kind": "topology", "regions": ["us-east1"]},
			{"kind": "differential", "regions": ["us-east1"]},
			{"kind": "topology", "regions": ["us-east1"], "congestionReport": false},
			{"kind": "differential", "regions": ["us-east1"], "tierComparison": false, "congestionReport": true}
		]
	}`
	s, err := ParseSpec([]byte(src), "switches.json")
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	cases := []struct {
		congestion, tiers bool
	}{
		{true, false},  // topology defaults
		{false, true},  // differential defaults
		{false, false}, // explicit off
		{true, false},  // explicit flip
	}
	for i, want := range cases {
		c := &s.Campaigns[i]
		if got := c.renderCongestion(); got != want.congestion {
			t.Errorf("campaigns[%d].renderCongestion() = %v, want %v", i, got, want.congestion)
		}
		if got := c.renderTiers(); got != want.tiers {
			t.Errorf("campaigns[%d].renderTiers() = %v, want %v", i, got, want.tiers)
		}
	}
}

// TestParseSpecLineErrors pins that parse failures point at the offending
// line and column of the source.
func TestParseSpecLineErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{
			name: "unknown field",
			src:  "{\n  \"name\": \"x\",\n  \"dayz\": 3\n}",
			want: "spec.json:3:3:", // the "dayz" key itself
		},
		{
			name: "type mismatch",
			src:  "{\n  \"name\": \"x\",\n  \"days\": \"three\"\n}",
			want: "spec.json:3:",
		},
		{
			name: "syntax error",
			src:  "{\n  \"name\": \"x\",\n}",
			want: "spec.json:3:",
		},
		{
			name: "trailing garbage",
			src:  `{"name":"x","artifacts":["all"]} {"again":true}`,
			want: "spec.json:1:33: trailing data",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseSpec([]byte(c.src), "spec.json")
			if err == nil {
				t.Fatal("ParseSpec accepted a bad spec")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not carry position %q", err, c.want)
			}
		})
	}
}

// TestValidateJoinsAllProblems pins that validation reports every problem
// at once, each naming its field.
func TestValidateJoinsAllProblems(t *testing.T) {
	src := `{
		"name": "Bad Name",
		"seed": -1,
		"faultProfile": "cosmic-rays",
		"campaigns": [
			{"kind": "quantum", "regions": ["atlantis"], "days": -2},
			{"kind": "topology", "regions": ["us-east1"], "tierComparison": true}
		],
		"artifacts": ["fig99"]
	}`
	_, err := ParseSpec([]byte(src), "bad.json")
	if err == nil {
		t.Fatal("ParseSpec accepted an invalid spec")
	}
	for _, want := range []string{
		`name: "Bad Name"`,
		"seed: must be non-negative",
		`faultProfile: "cosmic-rays"`,
		`campaigns[0].kind: "quantum"`,
		`campaigns[0].regions: unknown region "atlantis"`,
		"campaigns[0].days: must be non-negative",
		"campaigns[1].tierComparison: topology campaigns measure one tier",
		`artifacts[0]: unknown artifact "fig99"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error is missing %q\nfull error:\n%v", want, err)
		}
	}
}

func TestValidateRejectsEmptySpec(t *testing.T) {
	_, err := ParseSpec([]byte(`{"name":"idle"}`), "idle.json")
	if err == nil || !strings.Contains(err.Error(), "runs nothing") {
		t.Errorf("empty spec error = %v, want a runs-nothing complaint", err)
	}
	_, err = ParseSpec([]byte(`{"name":"both","topology":{"scale":0.5,"paperScale":true},"artifacts":["all"]}`), "both.json")
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Errorf("scale+paperScale error = %v, want mutually-exclusive complaint", err)
	}
}

func TestArtifactsListStable(t *testing.T) {
	arts := Artifacts()
	if arts[len(arts)-1] != "all" {
		t.Errorf("Artifacts() = %v, want %q last", arts, "all")
	}
	if len(arts) != 14 {
		t.Errorf("Artifacts() has %d entries, want 14 (13 artifacts + all)", len(arts))
	}
}
