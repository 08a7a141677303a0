package main

import (
	"encoding/json"
	"maps"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// coreSeries are the families one campaign must move: cache effectiveness,
// measure latency, shard ingest, campaign progress and the bill.
var coreSeries = []string{
	"netsim_flowcache_hits_total", "netsim_flowcache_misses_total",
	"bgp_tree_cache_misses_total", "bgp_link_cache_hits_total",
	"netsim_measure_latency_ns_count", "tsdb_inserts_total",
	"campaign_tests_completed_total", "campaign_someta_snapshots_total", "cloud_egress_bytes_total",
}

// checkMetricsDump holds what -metrics-out wrote after a real campaign to
// the observability contract: the Prometheus text parses, the core series
// moved, and the JSON snapshot beside it names exactly the same families
// (one side alone means a metric was emitted unregistered).
func checkMetricsDump(t *testing.T, path string) {
	t.Helper()
	text, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sums, typed := promSums(t, string(text))
	for _, name := range coreSeries {
		if sums[name] <= 0 {
			t.Errorf("core series %s is missing or zero after a campaign", name)
		}
	}

	js, err := os.ReadFile(path + ".json")
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(js, &snap); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	snapFamilies := map[string]bool{}
	for id := range snap {
		name, _, ok := obs.SplitSeriesID(id)
		if !ok {
			t.Errorf("JSON snapshot key %q is not a series id", id)
		}
		snapFamilies[name] = true
	}
	if !maps.Equal(typed, snapFamilies) {
		t.Errorf("the Prometheus dump and the JSON snapshot name different families:\n%v\n%v", typed, snapFamilies)
	}
}

// promSums parses Prometheus text exposition into per-sample-name sums
// (labels aggregated) and the set of families with a TYPE header, failing on
// a malformed or repeated header, a non-numeric value and a sample whose
// family has no header. (The line shape and the absence of duplicate series
// are WriteProm's own, held by obs.TestWritePromAndSnapshot.)
func promSums(t *testing.T, text string) (sums map[string]float64, typed map[string]bool) {
	t.Helper()
	sums, typed = map[string]float64{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 || typed[f[2]] {
				t.Fatalf("malformed or repeated TYPE header %q", line)
			}
			typed[f[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("sample line %q has no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		name, _, _ := strings.Cut(line[:sp], "{")
		if err != nil || !typed[name] && !typed[histBase(name)] {
			t.Fatalf("sample line %q: its value does not parse (%v) or its family has no TYPE header", line, err)
		}
		sums[name] += v
	}
	return sums, typed
}

// histBase maps a histogram sample name (_bucket/_sum/_count) to the family
// it was registered under.
func histBase(name string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if s, ok := strings.CutSuffix(name, suf); ok {
			return s
		}
	}
	return name
}
