package main

import (
	"strings"
	"testing"
)

func TestCompare(t *testing.T) {
	fresh, err := parseBench(strings.NewReader(`goos: linux
BenchmarkA-2   	 1000	      100 ns/op	      0 B/op	       2 allocs/op
BenchmarkA-2   	 1000	      110 ns/op	      0 B/op	       2 allocs/op
BenchmarkB-2   	 1000	      200 ns/op	     16 B/op	       1 allocs/op
PASS
`))
	if err != nil {
		t.Fatal(err)
	}
	if want := (record{Name: "A", NsPerOp: 100, AllocsPerOp: 2}); fresh["A"] != want {
		t.Fatalf("parseBench kept %+v for A, want the per-field minimum %+v", fresh["A"], want)
	}
	a := record{Name: "A", NsPerOp: 90, AllocsPerOp: 2} // fresh 100: +11 %
	b := record{Name: "B", NsPerOp: 200, AllocsPerOp: 1}
	for _, tc := range []struct {
		name     string
		records  []benchFile
		fails    []string // substrings, one per expected failure, in order
		compared int
	}{
		{"within budget", []benchFile{{"x.json", []record{a, b}}}, nil, 2},
		{"ns over budget", []benchFile{{"x.json", []record{{Name: "A", NsPerOp: 70, AllocsPerOp: 2}}}},
			[]string{"A: 100 ns/op vs committed 70"}, 1},
		{"allocs over budget", []benchFile{{"x.json", []record{{Name: "B", NsPerOp: 200}}}},
			[]string{"B: 1 allocs/op vs committed 0"}, 1},
		{"stale entry", []benchFile{{"x.json", []record{a, {Name: "Gone", NsPerOp: 1}}}},
			[]string{"Gone: committed in x.json but absent from the fresh run"}, 1},
		{"duplicate across records", []benchFile{{"x.json", []record{a}}, {"y.json", []record{b, a}}},
			[]string{"A: recorded in both x.json and y.json"}, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fails, compared := compare(fresh, tc.records, 0.25, 0.002)
			if compared != tc.compared || len(fails) != len(tc.fails) {
				t.Fatalf("compared %d, failures %q; want %d and %d failures", compared, fails, tc.compared, len(tc.fails))
			}
			for i, want := range tc.fails {
				if !strings.Contains(fails[i], want) {
					t.Errorf("failure %d = %q, want it to contain %q", i, fails[i], want)
				}
			}
		})
	}
}
