package main

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/obs"
)

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		nil,
		{"frobnicate"},
		{"select"},
		{"select", "a", "b"},
		{"campaign"},
		{"report"},
		{"report", "fig99", "-scale", "0.1", "-days", "1"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v): want error", args)
		}
	}
}

func TestRunSelect(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	var out strings.Builder
	if err := run([]string{"select", "us-west1", "-scale", "0.1", "-seed", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	// The pilot scan's alias sets and next-hop attributions are reported.
	var links, routers, viaNext int
	if _, err := fmt.Sscanf(out.String(), "Topology-based selection (us-west1): pilot links %d (%d routers, %d owned via next hop)",
		&links, &routers, &viaNext); err != nil {
		t.Fatalf("summary line: %v\n%s", err, out.String())
	}
	if routers == 0 || routers >= links || viaNext == 0 || viaNext >= links {
		t.Errorf("pilot links %d, routers %d, via next hop %d: want 0 < routers, via next hop < links", links, routers, viaNext)
	}
}

func TestRunCampaignAndReports(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	dump := filepath.Join(t.TempDir(), "metrics.prom")
	defer obs.SetEnabled(false) // -metrics-out turned the process-wide registry on
	if err := run([]string{"campaign", "us-east1", "-scale", "0.1", "-days", "2", "-metrics-out", dump}, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkMetricsDump(t, dump)
	for _, artifact := range []string{"table1", "fig3", "fig5", "fig6b", "fig7"} {
		if err := run([]string{"report", artifact, "-scale", "0.1", "-days", "2"}, io.Discard); err != nil {
			t.Fatalf("report %s: %v", artifact, err)
		}
	}
}

func TestRunUnknownRegion(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration in -short mode")
	}
	if err := run([]string{"campaign", "mars-central1", "-scale", "0.1", "-days", "1"}, io.Discard); err == nil {
		t.Error("unknown region: want error")
	}
}
