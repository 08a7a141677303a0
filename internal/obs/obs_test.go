package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	g := r.Gauge("queue_depth")

	// Disabled: updates are dropped.
	c.Inc()
	g.Set(5)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatalf("disabled registry recorded updates: counter=%d gauge=%g", c.Value(), g.Value())
	}

	r.SetEnabled(true)
	c.Inc()
	c.Add(4)
	g.Set(2.5)
	g.Add(-0.5)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if g.Value() != 2.0 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}

	// Re-registration returns the same instance.
	if r.Counter("requests_total") != c {
		t.Fatal("re-registering a counter returned a new instance")
	}
	if r.Gauge("queue_depth") != g {
		t.Fatal("re-registering a gauge returned a new instance")
	}
}

func TestLabelledSeriesIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("inserts_total", "shard", "3", "store", "main")
	b := r.Counter("inserts_total", "store", "main", "shard", "3") // same series, reordered labels
	if a != b {
		t.Fatal("label order changed series identity")
	}
	c := r.Counter("inserts_total", "shard", "4", "store", "main")
	if a == c {
		t.Fatal("distinct labels mapped to one series")
	}
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_metric")
	defer func() {
		if recover() == nil {
			t.Fatal("registering dup_metric as a gauge after a counter did not panic")
		}
	}()
	r.Gauge("dup_metric")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	r.Counter("bad name with spaces")
}

func TestHistogramBuckets(t *testing.T) {
	if got := bucketIndex(0); got != 0 {
		t.Errorf("bucketIndex(0) = %d, want 0", got)
	}
	if got := bucketIndex(1); got != 0 {
		t.Errorf("bucketIndex(1) = %d, want 0", got)
	}
	if got := bucketIndex(2); got != 1 {
		t.Errorf("bucketIndex(2) = %d, want 1", got)
	}
	if got := bucketIndex(3); got != 2 {
		t.Errorf("bucketIndex(3) = %d, want 2 (le=4)", got)
	}
	if got := bucketIndex(1024); got != 10 {
		t.Errorf("bucketIndex(1024) = %d, want 10", got)
	}
	if got := bucketIndex(1025); got != 11 {
		t.Errorf("bucketIndex(1025) = %d, want 11", got)
	}
	if got := bucketIndex(math.MaxUint64); got != histBuckets {
		t.Errorf("bucketIndex(maxuint) = %d, want overflow bucket %d", got, histBuckets)
	}
	if !math.IsInf(BucketBound(histBuckets), 1) {
		t.Error("overflow bucket bound is not +Inf")
	}

	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("latency_ns")
	for _, v := range []float64{1, 2, 3, 1024, 1 << 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	wantSum := 1.0 + 2 + 3 + 1024 + (1 << 50)
	if h.Sum() != wantSum {
		t.Fatalf("sum = %g, want %g", h.Sum(), wantSum)
	}
}

func TestWritePromAndSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("hits_total", "cache", "tree").Add(7)
	r.Gauge("progress").Set(0.5)
	h := r.Histogram("wait_ns")
	h.Observe(3)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hits_total counter",
		`hits_total{cache="tree"} 7`,
		"# TYPE progress gauge",
		"progress 0.5",
		"# TYPE wait_ns histogram",
		`wait_ns_bucket{le="4"} 1`,
		`wait_ns_bucket{le="128"} 2`,
		`wait_ns_bucket{le="+Inf"} 2`,
		"wait_ns_sum 103",
		"wait_ns_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prom dump missing %q:\n%s", want, out)
		}
	}

	// Every line is either a comment or "<id> <value>"; no duplicate ids.
	seen := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		id, _, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("malformed prom line %q", line)
		}
		if seen[id] {
			t.Fatalf("duplicate series %q in prom dump", id)
		}
		seen[id] = true
	}

	snap := r.Snapshot()
	if got := snap[`hits_total{cache="tree"}`]; got != uint64(7) {
		t.Errorf("snapshot counter = %v, want 7", got)
	}
	if got := snap["progress"]; got != 0.5 {
		t.Errorf("snapshot gauge = %v, want 0.5", got)
	}
	hv, ok := snap["wait_ns"].(HistogramValue)
	if !ok || hv.Count != 2 || hv.Buckets["4"] != 1 || hv.Buckets["128"] != 2 {
		t.Errorf("snapshot histogram = %+v", snap["wait_ns"])
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatalf("snapshot does not marshal: %v", err)
	}
}

// TestRegistryConcurrent drives counters, gauges, histograms, spans,
// registration and dumps from 12 goroutines; run under -race this is the
// satellite's registry race test, and the final counts pin atomicity.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.tracer.SetWriter(&syncDiscard{})
	c := r.Counter("conc_total")
	g := r.Gauge("conc_gauge")
	h := r.Histogram("conc_hist")

	const goroutines = 12
	const iters = 2000
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 4096))
				if i%512 == 0 {
					// Concurrent registration and dumping.
					r.Counter("conc_total")
					var buf bytes.Buffer
					if err := r.WriteProm(&buf); err != nil {
						t.Error(err)
						return
					}
					sp := r.tracer.Span("iter").WithInt("g", gi)
					sp.Child("leaf").End()
					sp.End()
				}
			}
		}(gi)
	}
	wg.Wait()

	if c.Value() != goroutines*iters {
		t.Fatalf("counter = %d, want %d", c.Value(), goroutines*iters)
	}
	if g.Value() != goroutines*iters {
		t.Fatalf("gauge = %g, want %d", g.Value(), goroutines*iters)
	}
	if h.Count() != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", h.Count(), goroutines*iters)
	}
	var cum uint64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
	}
	if cum != goroutines*iters {
		t.Fatalf("bucket total = %d, want %d", cum, goroutines*iters)
	}
}

// syncDiscard is an io.Writer safe for concurrent spans.
type syncDiscard struct{ mu sync.Mutex }

func (d *syncDiscard) Write(p []byte) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(p), nil
}

// TestDisabledPathZeroAllocs pins the disabled-path invariant: with the
// registry off, counter/gauge/histogram updates and full span chains
// allocate nothing, so instrumented hot paths keep their PR 2 numbers.
func TestDisabledPathZeroAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("off_total")
	g := r.Gauge("off_gauge")
	h := r.Histogram("off_hist")

	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.Add(2)
		h.Observe(42)
		sp := r.tracer.Span("campaign").With("region", "us-east1").WithInt("hour", 3)
		child := sp.Child("test")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled metrics path allocates %.1f allocs/op, want 0", allocs)
	}
}
