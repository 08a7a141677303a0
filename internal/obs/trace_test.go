package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestSpanEventsAreJSONL(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.SetWriter(&buf)

	root := tr.Span("campaign").With("region", "us-west1")
	child := root.Child("round").WithInt("hour", 4)
	child.End()
	root.End()
	tr.SetWriter(nil)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d span events, want 2:\n%s", len(lines), buf.String())
	}

	type event struct {
		Span   string            `json:"span"`
		ID     uint64            `json:"id"`
		Parent uint64            `json:"parent"`
		Start  string            `json:"start"`
		DurNs  int64             `json:"dur_ns"`
		Attrs  map[string]string `json:"attrs"`
	}
	var childEv, rootEv event
	if err := json.Unmarshal([]byte(lines[0]), &childEv); err != nil {
		t.Fatalf("child event not valid JSON: %v\n%s", err, lines[0])
	}
	if err := json.Unmarshal([]byte(lines[1]), &rootEv); err != nil {
		t.Fatalf("root event not valid JSON: %v\n%s", err, lines[1])
	}
	if childEv.Span != "round" || rootEv.Span != "campaign" {
		t.Fatalf("span names = %q, %q", childEv.Span, rootEv.Span)
	}
	if childEv.Parent != rootEv.ID {
		t.Fatalf("child parent = %d, want root id %d", childEv.Parent, rootEv.ID)
	}
	if childEv.Attrs["hour"] != "4" {
		t.Errorf("child hour attr = %q, want 4", childEv.Attrs["hour"])
	}
	if rootEv.Attrs["region"] != "us-west1" {
		t.Errorf("root region attr = %q", rootEv.Attrs["region"])
	}
	if childEv.DurNs < 0 || rootEv.DurNs < 0 {
		t.Error("negative span duration")
	}
	if _, err := time.Parse(time.RFC3339Nano, rootEv.Start); err != nil {
		t.Errorf("root start %q not RFC3339Nano: %v", rootEv.Start, err)
	}
}

func TestDisabledTracerNoOps(t *testing.T) {
	var tr Tracer
	sp := tr.Span("x")
	if sp.tr != nil {
		t.Fatal("disabled tracer returned a live span")
	}
	// All methods must be callable on the zero span.
	sp.With("k", "v").WithInt("i", 1).Child("y").End()
	sp.End()
	if tr.Enabled() {
		t.Fatal("tracer enabled without a writer")
	}
	var nilTracer *Tracer
	if nilTracer.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	nilTracer.Span("z").End()
}

func TestSpanAttrCapacity(t *testing.T) {
	var buf bytes.Buffer
	var tr Tracer
	tr.SetWriter(&buf)
	sp := tr.Span("crowded")
	for i := 0; i < spanAttrs+3; i++ {
		sp = sp.WithInt("k", i)
	}
	sp.End()
	var ev struct {
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal(buf.Bytes(), &ev); err != nil {
		t.Fatalf("overflowing attrs corrupted the event: %v\n%s", err, buf.String())
	}
}
