package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
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
)

// TestEveryOptionReachesEveryLayer is the guard against a new option
// silently missing a layer: every exported core.Options field must be part
// of the checkpoint identity (and survive Options -> Identity ->
// ResumeOptions) or be listed as a runtime/injection field, and every
// non-injection field must be settable from a scenario spec and — unless
// listed in noFlagFields — from a CLI flag.
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
		if err := dec.Decode(&spec); err != nil {
			t.Errorf("%s has no scenario spec key: decoding %s: %v", f.Name, doc, err)
		} else if got := fmt.Sprint(landed(&spec)); got != "7" {
			t.Errorf("spec document %s left %s = %v, want 7", doc, f.Name, got)
		}
		fl, hasFlag := flagOf[f.Name]
		if hasFlag == slices.Contains(noFlagFields, f.Name) {
			t.Errorf("%s: bound to a CLI flag = %v and listed in noFlagFields = %[2]v; want exactly one", f.Name, hasFlag)
		}
		if f.Name == "Scale" {
			key = "topology.scale"
		}
		if hasFlag && specKeys[fl] != key {
			t.Errorf("specKeys[%q] = %q, want %s's spec key %q", fl, specKeys[fl], f.Name, key)
		}
	}
}

// TestScenarioCommandsRejectEngineFlags: run and fleet take every knob from
// the spec, so a flag that names one — each used to parse and be ignored — is
// refused with the spec key to set instead (specKeys lists every bindOptions
// flag: TestEveryOptionReachesEveryLayer). Telemetry flags stay valid.
func TestScenarioCommandsRejectEngineFlags(t *testing.T) {
	const spec = "../../examples/scenarios/small-smoke.json"
	for name, key := range specKeys {
		for _, cmd := range []string{"run", "fleet"} {
			err := run([]string{cmd, spec, "-" + name, "7"}, io.Discard)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", key)) {
				t.Errorf("clasp %s <spec> -%s 7: got %v, want an error naming spec key %q", cmd, name, err, key)
			}
		}
	}
	if err := run([]string{"run", spec, "-memprofile", filepath.Join(t.TempDir(), "mem.prof")}, io.Discard); err != nil {
		t.Errorf("clasp run <spec> -memprofile: %v", err)
	}
}

// TestInvalidOptionsRejectedEverywhere: core.Options.Validate is the one
// validation point, so the CLI, clasp.New and a scenario spec all refuse
// the same bad values, each naming the field. Before it, `-scale -1`
// silently ran the paper-scale topology and the other values were accepted
// by every entry point but the spec parser.
func TestInvalidOptionsRejectedEverywhere(t *testing.T) {
	for _, tc := range []struct {
		field string // what every error must name
		args  []string
		spec  string
		set   func(*clasp.Options)
	}{
		{"seed", []string{"-seed", "-1"}, `"seed": -1`, func(o *clasp.Options) { o.Seed = -1 }},
		{"scale", []string{"-scale", "-1"}, `"topology": {"scale": -1}`, func(o *clasp.Options) { o.Scale = -1 }},
		{"parallelism", []string{"-parallelism", "-1"}, `"parallelism": -1`, func(o *clasp.Options) { o.Parallelism = -1 }},
		{"maxMemoryMB", []string{"-max-memory", "-1"}, `"maxMemoryMB": -1`, func(o *clasp.Options) { o.MaxMemoryMB = -1 }},
		{"checkpointEvery", []string{"-checkpoint-dir", "d", "-checkpoint-every", "-1"}, `"checkpointDir": "d", "checkpointEvery": -1`,
			func(o *clasp.Options) { o.CheckpointDir, o.CheckpointEvery = "d", -1 }},
		{"checkpointEvery: needs checkpointDir", []string{"-checkpoint-every", "2"}, `"checkpointEvery": 2`, func(o *clasp.Options) { o.CheckpointEvery = 2 }},
		{"faultProfile", []string{"-fault-profile", "cosmic-rays"}, `"faultProfile": "cosmic-rays"`, func(o *clasp.Options) { o.FaultProfile = "cosmic-rays" }},
	} {
		check := func(entry string, err error) {
			if err == nil || !strings.Contains(err.Error(), tc.field) {
				t.Errorf("%s with a bad %s: got %v, want an error naming it", entry, tc.field, err)
			}
		}
		check("CLI", run(append([]string{"select", "us-west1"}, tc.args...), io.Discard))
		opts := clasp.Options{Scale: 0.1}
		tc.set(&opts)
		_, err := clasp.New(opts)
		check("clasp.New", err)
		_, err = scenario.ParseSpec([]byte(`{"name": "bad", "artifacts": ["table1"], `+tc.spec+`}`), "bad.json")
		check("spec", err)
	}
	for _, days := range []string{"0", "-3"} {
		if err := run([]string{"campaign", "us-west1", "-scale", "0.1", "-days", days}, io.Discard); err == nil || !strings.Contains(err.Error(), "-days") {
			t.Errorf("-days %s: got %v, want an error naming -days", days, err)
		}
	}
}
