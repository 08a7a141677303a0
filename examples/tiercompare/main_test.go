package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTiercompareRuns runs the example end to end with stdout captured, so the
// public API it walks through stays working.
func TestTiercompareRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	main()
	os.Stdout = stdout
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "standard tier faster: "; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
