package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// emitTrace drives the real obs tracer through a miniature campaign shape
// (campaign → rounds → vm-hours → tests) so the reconstruction is tested
// against genuine tracer output, not hand-written JSON. Each test span
// lasts a millisecond, so a round always outlasts the warm span beside it
// and the critical path runs through the rounds: with empty spans the two
// took microseconds each and the warm span was sometimes the slower.
func emitTrace(t *testing.T) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	obs.SetTraceWriter(&buf)
	defer obs.SetTraceWriter(nil)

	camp := obs.Trace("campaign").With("region", "us-east1")
	warm := camp.Child("warm").WithInt("destinations", 3)
	warm.End()
	for hour := 0; hour < 2; hour++ {
		round := camp.Child("round").WithInt("hour", hour)
		for vm := 0; vm < 2; vm++ {
			vh := round.Child("vm-hour").WithInt("vm", vm)
			for i := 0; i < 3; i++ {
				test := vh.Child("test").WithInt("idx", i)
				time.Sleep(time.Millisecond)
				test.End()
			}
			vh.End()
		}
		round.End()
	}
	camp.End()
	return &buf
}

func TestParseRebuildsHierarchy(t *testing.T) {
	f, err := Parse(emitTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	// 1 campaign + 1 warm + 2 rounds + 4 vm-hours + 12 tests.
	if f.Spans != 20 {
		t.Fatalf("parsed %d spans, want 20", f.Spans)
	}
	if len(f.Roots) != 1 || f.Orphan != 0 {
		t.Fatalf("roots=%d orphan=%d, want 1 root, 0 orphans", len(f.Roots), f.Orphan)
	}
	root := f.Roots[0]
	if root.Span != "campaign" || root.Attrs["region"] != "us-east1" {
		t.Fatalf("root = %s%v", root.Span, root.Attrs)
	}
	if len(root.Children) != 3 { // warm + 2 rounds
		t.Fatalf("campaign has %d children, want 3", len(root.Children))
	}
	var rounds int
	for _, c := range root.Children {
		if c.Span != "round" {
			continue
		}
		rounds++
		if len(c.Children) != 2 {
			t.Fatalf("round has %d vm-hours, want 2", len(c.Children))
		}
		for _, vh := range c.Children {
			if vh.Span != "vm-hour" || len(vh.Children) != 3 {
				t.Fatalf("vm-hour %v has %d tests, want 3", vh.Attrs, len(vh.Children))
			}
			for _, test := range vh.Children {
				if test.Span != "test" || len(test.Children) != 0 {
					t.Fatalf("leaf = %s with %d children", test.Span, len(test.Children))
				}
			}
		}
	}
	if rounds != 2 {
		t.Fatalf("found %d rounds, want 2", rounds)
	}
}

func TestRenderRollupsAndCriticalPath(t *testing.T) {
	f, err := Parse(emitTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	Render(&out, f, 4)
	s := out.String()
	for _, want := range []string{
		"20 spans, 1 roots",
		"campaign{region=us-east1}",
		"round ×2",
		"vm-hour ×4", // merged across the round rollup
		"test ×12",
		"critical path:",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("render output missing %q:\n%s", want, s)
		}
	}
	// The critical path must descend campaign → round → vm-hour → test.
	cpIdx := strings.Index(s, "critical path:")
	cp := s[cpIdx:]
	last := -1
	for _, name := range []string{"campaign", "round{", "vm-hour{", "test{"} {
		i := strings.Index(cp, name)
		if i < 0 {
			t.Fatalf("critical path missing %q:\n%s", name, cp)
		}
		if i < last {
			t.Fatalf("critical path out of order at %q:\n%s", name, cp)
		}
		last = i
	}
}

func TestParseReRootsOrphans(t *testing.T) {
	// Simulate a truncated log: the campaign root's end event is missing,
	// so its direct children must surface as roots instead of vanishing.
	full := emitTrace(t).String()
	var kept []string
	for _, line := range strings.Split(full, "\n") {
		if strings.Contains(line, `"span":"campaign"`) {
			continue
		}
		if line != "" {
			kept = append(kept, line)
		}
	}
	f, err := Parse(strings.NewReader(strings.Join(kept, "\n")))
	if err != nil {
		t.Fatal(err)
	}
	if f.Spans != 19 {
		t.Fatalf("parsed %d spans, want 19", f.Spans)
	}
	// warm + 2 rounds re-rooted; their subtrees intact.
	if len(f.Roots) != 3 || f.Orphan != 3 {
		t.Fatalf("roots=%d orphan=%d, want 3 and 3", len(f.Roots), f.Orphan)
	}
}

func TestParseRejectsBadInput(t *testing.T) {
	if _, err := Parse(strings.NewReader("not json\n")); err == nil {
		t.Error("malformed line accepted")
	}
	if _, err := Parse(strings.NewReader(`{"span":"x","id":1,"dur_ns":5}` + "\n" + `{"span":"y","id":1,"dur_ns":5}` + "\n")); err == nil {
		t.Error("duplicate span id accepted")
	}
	if _, err := Parse(strings.NewReader(`{"span":"x","dur_ns":5}` + "\n")); err == nil {
		t.Error("missing id accepted")
	}
}
