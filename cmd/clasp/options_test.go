package main

import (
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/checkpoint"
	"github.com/clasp-measurement/clasp/internal/core"
	"github.com/clasp-measurement/clasp/internal/scenario"

	clasp "github.com/clasp-measurement/clasp"
)

// The three ways a core.Options field may sit outside checkpoint.Identity
// or the CLI. Adding a field to core.Options without putting it in Identity
// or in one of these lists fails TestEveryOptionReachesEveryLayer.
var (
	// runtimeFields may change across a resume without changing output.
	runtimeFields = []string{"Parallelism", "MaxMemoryMB", "SpillDir", "CheckpointDir"}
	// injectionFields hand pre-built state to the engine; Go callers only.
	injectionFields = []string{"Substrate"}
	// noFlagFields are settable from the API and a spec but not the CLI.
	noFlagFields = []string{"CaptureEvery", "TracerouteEvery"}
	// noSpecFields are settable from the API and the CLI but not a spec:
	// a scenario has no resume, so it does not checkpoint.
	noSpecFields = []string{"CheckpointDir", "CheckpointEvery"}
)

// TestEveryOptionReachesEveryLayer is the guard against a new option
// silently missing a layer: every exported core.Options field must be part
// of the checkpoint identity (and survive Options -> Identity ->
// ResumeOptions) or be listed as a runtime/injection field, and every
// non-injection field must be settable — unless listed in noSpecFields —
// from a scenario spec and — unless listed in noFlagFields — from a CLI
// flag.
func TestEveryOptionReachesEveryLayer(t *testing.T) {
	optT, idT := reflect.TypeOf(core.Options{}), reflect.TypeOf(checkpoint.Identity{})
	var identity []string
	for i := 0; i < optT.NumField(); i++ {
		name := optT.Field(i).Name
		_, inIdentity := idT.FieldByName(name)
		listed := slices.Contains(runtimeFields, name) || slices.Contains(injectionFields, name)
		switch {
		case inIdentity && listed:
			t.Errorf("%s is both an identity field and a listed runtime/injection field", name)
		case inIdentity:
			identity = append(identity, name)
		case !listed:
			t.Errorf("core.Options.%s is neither in checkpoint.Identity nor a listed runtime/injection field: a resume would silently drop it", name)
		}
	}
	if len(identity) != idT.NumField() {
		t.Errorf("checkpoint.Identity has %d fields but only %v are core.Options fields", idT.NumField(), identity)
	}

	// Random canonical values (non-empty profile, cadences >= 1) survive
	// the round trip unchanged, and nothing else is set on the way.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		var o core.Options
		for _, name := range identity {
			switch f := reflect.ValueOf(&o).Elem().FieldByName(name); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(1 + rng.Int63n(1000))
			case reflect.Float64:
				f.SetFloat(0.01 + rng.Float64())
			case reflect.String:
				f.SetString(fmt.Sprintf("profile-%d", rng.Intn(1000)))
			default:
				t.Fatalf("identity field %s has kind %v; teach this test to randomise it", name, f.Kind())
			}
		}
		if back := core.ResumeOptions(o.Identity()); !reflect.DeepEqual(back, o) {
			t.Fatalf("Options -> Identity -> ResumeOptions changed the options:\n got %+v\nwant %+v", back, o)
		}
	}

	// Which field does each CLI flag set?
	var bound core.Options
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	bindOptions(fs, &bound)
	flagOf := make(map[string]string)
	fs.VisitAll(func(fl *flag.Flag) {
		before := bound
		if err := fs.Set(fl.Name, "7"); err != nil {
			t.Fatalf("-%s: %v", fl.Name, err)
		}
		for i := 0; i < optT.NumField(); i++ {
			if reflect.ValueOf(before).Field(i).Interface() != reflect.ValueOf(bound).Field(i).Interface() {
				flagOf[optT.Field(i).Name] = fl.Name
			}
		}
	})

	for i := 0; i < optT.NumField(); i++ {
		f := optT.Field(i)
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if slices.Contains(injectionFields, f.Name) {
			if key != "-" {
				t.Errorf("injection field %s has spec key %q, want none", f.Name, key)
			}
			continue
		}
		noSpec := slices.Contains(noSpecFields, f.Name)
		if noSpec {
			if key != "-" {
				t.Errorf("%s is listed in noSpecFields but has spec key %q", f.Name, key)
			}
			key = strings.ToLower(f.Name[:1]) + f.Name[1:] // how a spec would spell it
		}
		// The scale is the one knob a spec spells elsewhere.
		doc, landed := fmt.Sprintf(`{%q: 7}`, key), func(s *scenario.Spec) any { return reflect.ValueOf(s.Options).Field(i).Interface() }
		if f.Name == "Scale" {
			doc, landed = `{"topology": {"scale": 7}}`, func(s *scenario.Spec) any { return s.Topology.Scale }
		} else if f.Type.Kind() == reflect.String {
			doc = fmt.Sprintf(`{%q: "7"}`, key)
		}
		var spec scenario.Spec
		dec := json.NewDecoder(bytes.NewReader([]byte(doc)))
		dec.DisallowUnknownFields()
		switch err := dec.Decode(&spec); {
		case noSpec && (err == nil || !strings.Contains(err.Error(), "unknown field")):
			t.Errorf("%s is listed in noSpecFields: decoding %s gave %v, want the key refused", f.Name, doc, err)
		case noSpec:
		case err != nil:
			t.Errorf("%s has no scenario spec key: decoding %s: %v", f.Name, doc, err)
		case fmt.Sprint(landed(&spec)) != "7":
			t.Errorf("spec document %s left %s = %v, want 7", doc, f.Name, landed(&spec))
		}
		fl, hasFlag := flagOf[f.Name]
		if hasFlag == slices.Contains(noFlagFields, f.Name) {
			t.Errorf("%s: bound to a CLI flag = %v and listed in noFlagFields = %[2]v; want exactly one", f.Name, hasFlag)
		}
		if f.Name == "Scale" {
			key = "topology.scale"
		} else if noSpec {
			key = ""
		}
		if hasFlag && specKeys[fl] != key {
			t.Errorf("specKeys[%q] = %q, want %s's spec key %q", fl, specKeys[fl], f.Name, key)
		}
	}
}

// TestScenarioCommandsRejectEngineFlags: run and fleet take every knob from
// the spec, so a flag that names one — each used to parse and be ignored — is
// refused with the spec key to set instead (specKeys lists every bindOptions
// flag: TestEveryOptionReachesEveryLayer), and a checkpoint flag because
// scenarios do not checkpoint. Telemetry flags stay valid.
func TestScenarioCommandsRejectEngineFlags(t *testing.T) {
	const spec = "../../examples/scenarios/small-smoke.json"
	for name, key := range specKeys {
		want := fmt.Sprintf("%q", key)
		if key == "" {
			want = "scenarios do not checkpoint"
		}
		for _, cmd := range []string{"run", "fleet"} {
			err := run([]string{cmd, spec, "-" + name, "7"}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("clasp %s <spec> -%s 7: got %v, want an error saying %s", cmd, name, err, want)
			}
		}
	}
	if err := run([]string{"run", spec, "-memprofile", filepath.Join(t.TempDir(), "mem.prof")}, io.Discard); err != nil {
		t.Errorf("clasp run <spec> -memprofile: %v", err)
	}
}

// TestResumeRejectsManifestFlags: resume takes the run's identity and shape
// from command.json, so a flag that sets one — each used to parse and be
// ignored, the resume printing the recorded run's bytes — is refused naming
// the flag and the manifest. The runtime and telemetry flags stay valid and
// move no byte.
func TestResumeRejectsManifestFlags(t *testing.T) {
	ck := filepath.Join(t.TempDir(), "ck")
	var want bytes.Buffer
	if err := run([]string{"campaign", "us-west1", "-scale", "0.1", "-days", "1", "-checkpoint-dir", ck}, &want); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ flag, value string }{
		{"seed", "9"}, {"scale", "0.3"}, {"fault-profile", "flaky-vm"}, {"checkpoint-dir", ck},
		{"checkpoint-every", "4"}, {"days", "5"}, {"samples", "7"},
	} {
		err := run([]string{"resume", ck, "-" + tc.flag, tc.value}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "-"+tc.flag+":") || !strings.Contains(err.Error(), checkpoint.ManifestFile) {
			t.Errorf("clasp resume <dir> -%s %s: got %v, want an error naming -%[1]s and %[4]s", tc.flag, tc.value, err, checkpoint.ManifestFile)
		}
	}
	var got bytes.Buffer
	err := run([]string{"resume", ck, "-parallelism", "4", "-max-memory", "1", "-spill-dir", t.TempDir(),
		"-memprofile", filepath.Join(t.TempDir(), "mem.prof")}, &got)
	if err != nil {
		t.Fatalf("clasp resume <dir> with runtime flags: %v", err)
	}
	requireSameBytes(t, got.Bytes(), want.Bytes())
}

// TestInvalidOptionsRejectedEverywhere: core.Options.Validate is the one
// validation point, so the CLI, clasp.New and a scenario spec all refuse
// the same bad values, each naming the field. Before it, `-scale -1`
// silently ran the paper-scale topology and the other values were accepted
// by every entry point but the spec parser.
func TestInvalidOptionsRejectedEverywhere(t *testing.T) {
	// A spec has no checkpoint keys (scenarios do not checkpoint), so it
	// refuses the key itself.
	const noKey = `unknown field "checkpointEvery"`
	for _, tc := range []struct {
		field     string // what every error must name
		args      []string
		spec      string
		specField string // what the spec's error must name, when not field
		set       func(*clasp.Options)
	}{
		{"seed", []string{"-seed", "-1"}, `"seed": -1`, "", func(o *clasp.Options) { o.Seed = -1 }},
		{"scale", []string{"-scale", "-1"}, `"topology": {"scale": -1}`, "", func(o *clasp.Options) { o.Scale = -1 }},
		{"parallelism", []string{"-parallelism", "-1"}, `"parallelism": -1`, "", func(o *clasp.Options) { o.Parallelism = -1 }},
		{"maxMemoryMB", []string{"-max-memory", "-1"}, `"maxMemoryMB": -1`, "", func(o *clasp.Options) { o.MaxMemoryMB = -1 }},
		{"checkpointEvery", []string{"-checkpoint-dir", "d", "-checkpoint-every", "-1"}, `"checkpointEvery": -1`, noKey,
			func(o *clasp.Options) { o.CheckpointDir, o.CheckpointEvery = "d", -1 }},
		{"checkpointEvery: needs checkpointDir", []string{"-checkpoint-every", "2"}, `"checkpointEvery": 2`, noKey, func(o *clasp.Options) { o.CheckpointEvery = 2 }},
		{"faultProfile", []string{"-fault-profile", "cosmic-rays"}, `"faultProfile": "cosmic-rays"`, "", func(o *clasp.Options) { o.FaultProfile = "cosmic-rays" }},
	} {
		check := func(entry, field string, err error) {
			if err == nil || !strings.Contains(err.Error(), field) {
				t.Errorf("%s with a bad %s: got %v, want an error naming %s", entry, tc.field, err, field)
			}
		}
		check("CLI", tc.field, run(append([]string{"select", "us-west1"}, tc.args...), io.Discard))
		opts := clasp.Options{Scale: 0.1}
		tc.set(&opts)
		_, err := clasp.New(opts)
		check("clasp.New", tc.field, err)
		_, err = scenario.ParseSpec([]byte(`{"name": "bad", "artifacts": ["table1"], `+tc.spec+`}`), "bad.json")
		check("spec", cmp.Or(tc.specField, tc.field), err)
	}
	for _, days := range []string{"0", "-3"} {
		if err := run([]string{"campaign", "us-west1", "-scale", "0.1", "-days", days}, io.Discard); err == nil || !strings.Contains(err.Error(), "-days") {
			t.Errorf("-days %s: got %v, want an error naming -days", days, err)
		}
	}
}

// TestMissingSpillDirRefusedUpFront: a budget spills only a finished
// campaign, so `report all -max-memory 64 -spill-dir <missing>` used to
// measure its campaigns and print its first artifacts before it failed on
// the spill. Every command that builds an engine now fails first, naming
// spillDir, with nothing printed but a fleet's scenario header.
func TestMissingSpillDirRefusedUpFront(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing")
	ck := filepath.Join(dir, "ck")
	if err := run([]string{"campaign", "us-west1", "-scale", "0.1", "-days", "1", "-checkpoint-dir", ck}, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../../examples/scenarios/small-smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]any
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	spec["maxMemoryMB"], spec["spillDir"] = 1, missing
	if raw, err = json.Marshal(spec); err != nil {
		t.Fatal(err)
	}
	fleet := filepath.Join(dir, "fleet")
	if err := os.Mkdir(fleet, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fleet, "small-smoke.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	var header bytes.Buffer
	core.Separator(&header, "scenario small-smoke")
	for _, tc := range []struct {
		args []string
		want string // what may be printed before the error
	}{
		{[]string{"report", "all", "-scale", "0.1", "-days", "1", "-max-memory", "64", "-spill-dir", missing}, ""},
		{[]string{"run", filepath.Join(fleet, "small-smoke.json")}, ""},
		{[]string{"fleet", fleet}, header.String()},
		{[]string{"resume", ck, "-max-memory", "1", "-spill-dir", missing}, ""},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), "spillDir") || out.String() != tc.want {
			t.Errorf("clasp %s: got %v after printing %q, want an error naming spillDir after %q", strings.Join(tc.args, " "), err, out.String(), tc.want)
		}
	}
}

// TestNegativeSamplesRefused: the selection maps every -samples value <= 0
// to 100, so -samples -5 used to run as -samples 100 where a spec refuses
// minSamples -5. The CLI now refuses it in the spec's words. An invalid
// option is reported with the one "clasp:" prefix main adds, not two.
func TestNegativeSamplesRefused(t *testing.T) {
	err := run([]string{"select", "europe-west1", "-scale", "0.1", "-samples", "-5"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-samples: must be non-negative, got -5") {
		t.Errorf("-samples -5: got %v, want it refused naming -samples", err)
	}
	_, err = scenario.ParseSpec([]byte(`{"name": "bad", "artifacts": ["table1"], "minSamples": -5}`), "bad.json")
	if err == nil || !strings.Contains(err.Error(), "minSamples: must be non-negative, got -5") {
		t.Errorf("spec minSamples -5: got %v", err)
	}
	if err := run([]string{"select", "us-west1", "-scale", "-1"}, io.Discard); err == nil || strings.HasPrefix(err.Error(), "clasp:") {
		t.Errorf("-scale -1: got %v, want an error main prefixes once", err)
	}
}
