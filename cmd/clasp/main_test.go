package main

import (
	"io"
	"path/filepath"
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
	if err := run([]string{"select", "us-west1", "-scale", "0.1", "-seed", "2"}, io.Discard); err != nil {
		t.Fatal(err)
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
