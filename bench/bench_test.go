package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
	"time"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestNames(t *testing.T) {
	seen := make(map[string]bool)
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q does not match %v", kind, name, nameRE)
		}
		if seen[name] {
			t.Errorf("%s name %q is used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.name)
	}
	for _, m := range endToEnd {
		check("end-to-end metric", m.Name)
		if m.of == nil {
			t.Errorf("end-to-end metric %q has no extractor", m.Name)
		}
	}
	for _, m := range perLayer {
		check("per-layer metric", m.Name)
	}
}

// TestRegistryMatchesManifest pins the lists in code to BENCHMARK.json: the
// driver reads the file, the program prints from the code.
func TestRegistryMatchesManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type namedWhy struct{ Name, Why string }
	var man struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	var ws []namedWhy
	for _, w := range workloads {
		ws = append(ws, namedWhy{w.name, w.why})
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(man.Workloads, ws) {
		t.Errorf("workloads differ:\n manifest %v\n code     %v", man.Workloads, ws)
	}
	exported := func(ms []metricDef) []metricDef {
		out := make([]metricDef, len(ms))
		for i, m := range ms {
			out[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better, Bound: m.Bound}
		}
		return out
	}
	if !reflect.DeepEqual(man.EndToEnd, exported(endToEnd)) {
		t.Errorf("end-to-end metrics differ:\n manifest %v\n code     %v", man.EndToEnd, exported(endToEnd))
	}
	if !reflect.DeepEqual(man.PerLayer, exported(perLayer)) {
		t.Errorf("per-layer metrics differ:\n manifest %v\n code     %v", man.PerLayer, exported(perLayer))
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	setup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	if !reflect.DeepEqual(man.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", man.Paths)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100 * ms},
		{ID: 1, Parent: 0, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 2, Parent: 0, Name: "b", Start: 30 * ms, End: 60 * ms},  // overlaps a by 10ms
		{ID: 3, Parent: 0, Name: "c", Start: 70 * ms, End: 70 * ms},  // zero length
		{ID: 4, Parent: 0, Name: "d", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 1, Name: "a.x", Start: 10 * ms, End: 40 * ms},
		{ID: 6, Parent: 2, Name: "b.x", Start: 35 * ms, End: 35 * ms},
		{ID: 7, Parent: 1, Name: "a.y", Start: 15 * ms, End: 20 * ms}, // inside a.x
	}
	want := []time.Duration{
		40 * ms, // root: 100 - [10,60] - [90,100]
		0,       // a: fully covered by a.x
		30 * ms, // b: its only child is empty
		0,
		30 * ms,
		30 * ms,
		0,
		5 * ms,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSummarize(t *testing.T) {
	lower := metricDef{Unit: "s", Better: "lower"}
	for _, tc := range []struct {
		m    metricDef
		vals []float64
		want summary
	}{
		{lower, nil, summary{Unit: "s"}},
		{lower, []float64{3}, summary{Unit: "s", Value: 3, Median: 3, Min: 3, Max: 3, N: 1}},
		{lower, []float64{5, 1, 3}, summary{Unit: "s", Value: 3, Median: 3, Min: 1, Max: 5, N: 3}},
		{lower, []float64{4, 1, 2, 9}, summary{Unit: "s", Value: 3, Median: 3, Min: 1, Max: 9, N: 4}},
		{metricDef{Unit: "s", Better: "lower", best: true}, []float64{4, 1, 2, 9}, summary{Unit: "s", Value: 1, Median: 3, Min: 1, Max: 9, N: 4}},
		{metricDef{Unit: "1/s", Better: "higher", best: true}, []float64{4, 1, 2, 9}, summary{Unit: "1/s", Value: 9, Median: 3, Min: 1, Max: 9, N: 4}},
	} {
		if got := summarize(tc.m, tc.vals); got != tc.want {
			t.Errorf("summarize(%+v, %v) = %+v, want %+v", tc.m, tc.vals, got, tc.want)
		}
	}
}

func TestJoinTraceValue(t *testing.T) {
	got := joinTraceValue([]string{"--workload", "x", "--trace", "1", "-trace", "--seed", "2", "-trace"})
	want := []string{"--workload", "x", "-trace=1", "-trace", "--seed", "2", "-trace"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("joinTraceValue = %v, want %v", got, want)
	}
}

// TestSmoke drives every workload's traced code path - the end-to-end call,
// the staged pipeline and every probe - at a tiny shape, with all output
// checks on. Four days is the shortest campaign that still exceeds half of
// the smallest memory budget and so streams.
func TestSmoke(t *testing.T) {
	registered := make(map[string]bool)
	for _, m := range perLayer {
		registered[m.Name] = true
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			tiny := *w
			tiny.shape = shape{scale: 0.05, days: 4, rounds: 1, memoryMB: min(w.shape.memoryMB, 1)}
			dir := t.TempDir()
			r := &run{w: &tiny, seed: 1, procs: 2, tmp: dir}
			traceOut := filepath.Join(dir, "trace.jsonl")
			res, err := executeTraced(r, traceOut)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range res.Problems {
				t.Errorf("failed check: %s", p)
			}
			if res.Failed != 0 || res.Attempted == 0 || res.Work == 0 {
				t.Errorf("attempted %d, failed %d, work %v", res.Attempted, res.Failed, res.Work)
			}
			if res.WallS <= 0 || res.SetupS <= 0 || res.PeakRSSMB <= 0 || res.OutputBytes == 0 {
				t.Errorf("empty measurement: %+v", res)
			}
			for name := range res.Layers {
				if !registered[name] {
					t.Errorf("per-layer metric %q is not in the registry", name)
				}
			}
			if res.Layers["trace.root_s"] <= 0 || res.Layers["topology.new_s"] <= 0 {
				t.Errorf("span metrics missing: %v", res.Layers)
			}

			f, err := os.Open(traceOut)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			n := 0
			for sc := bufio.NewScanner(f); sc.Scan(); n++ {
				var s spanRecord
				if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
					t.Fatalf("span %d: %v", n, err)
				}
				if s.Workload != w.name || s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
					t.Errorf("bad span %+v", s)
				}
			}
			if n < 5 {
				t.Errorf("only %d spans written", n)
			}
		})
	}
}
