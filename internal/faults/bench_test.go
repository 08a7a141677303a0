package faults

import (
	"context"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// Fault-layer benchmarks for BENCH_faults.json: the per-test decision cost
// an active profile adds to the hot path (the common all-miss case), and
// the deterministic backoff computation on the retry path.

func benchSpec() netsim.TestSpec {
	return netsim.TestSpec{
		Region: "us-east1",
		Server: &topology.Server{ID: 42},
		Time:   time.Date(2020, 5, 1, 12, 0, 0, 0, time.UTC),
	}
}

// BenchmarkFaultsBeforeMeasureMiss is the decision cost injected campaigns
// pay per test when nothing fires — four hash draws, no blocking.
func BenchmarkFaultsBeforeMeasureMiss(b *testing.B) {
	prof := Profile{
		TransientErrProb:  1e-12,
		ServerUnavailProb: 1e-12,
		HangProb:          1e-12,
		SlowProb:          1e-12,
		SlowLatency:       time.Millisecond,
	}
	in := NewInjector(prof, 7)
	ctx := context.Background()
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Attempt = i
		if err := in.BeforeMeasure(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultsNilInjector pins the disabled decision cost: one nil check.
func BenchmarkFaultsNilInjector(b *testing.B) {
	var in *Injector
	ctx := context.Background()
	spec := benchSpec()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := in.BeforeMeasure(ctx, spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultsBackoff is the per-retry schedule computation.
func BenchmarkFaultsBackoff(b *testing.B) {
	in := NewInjector(Profile{TransientErrProb: 0.5}, 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := in.Backoff(i%4, 11, 22, 33); d <= 0 {
			b.Fatal("non-positive backoff")
		}
	}
}
