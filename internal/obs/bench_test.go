package obs

import (
	"testing"
)

// The BenchmarkObs* benchmarks feed BENCH_obs.json via `make bench`. The
// Disabled variants pin the no-op cost paid by instrumented hot paths when
// metrics are off (must be a few ns and 0 allocs/op); the Enabled variants
// record the live-update cost.

func BenchmarkObsDisabledCounter(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsDisabledHistogram(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("bench_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i))
	}
}

func BenchmarkObsDisabledSpan(b *testing.B) {
	r := NewRegistry()
	tr := &r.tracer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp := tr.Span("test").With("region", "us-east1").WithInt("server", i)
		sp.Child("leaf").End()
		sp.End()
	}
}

func BenchmarkObsEnabledCounter(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("bench_total")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsEnabledHistogram(b *testing.B) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("bench_ns")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i & 0xfffff))
	}
}
