package obs

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
)

// TestSamplesSnapshot pins the structured snapshot contract: sorted by id,
// counters and gauges carry their values, labels as sorted pairs.
func TestSamplesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("zz_total", "b", "2", "a", "1").Add(7)
	r.Gauge("gg").Set(-2.5)
	r.Histogram("hh_ns", "route", "/x").Observe(100)

	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("Samples returned %d entries, want 3", len(got))
	}
	if s := got[0]; s.Name != "gg" || s.Labels != nil || s.Value != -2.5 {
		t.Fatalf("gauge sample = %+v", s)
	}
	if s := got[1]; s.Name != "hh_ns" || !slices.Equal(s.Labels, []string{"route", "/x"}) {
		t.Fatalf("histogram sample = %+v", s)
	}
	if s := got[2]; s.Name != "zz_total" || s.Counter != 7 || !slices.Equal(s.Labels, []string{"a", "1", "b", "2"}) {
		t.Fatalf("counter sample = %+v", s)
	}
}

// TestSplitSeriesIDRoundTrip holds the splitter to seriesID both ways: every
// id seriesID renders splits back into its name and sorted pairs, and every
// string that is not such an id is refused.
func TestSplitSeriesIDRoundTrip(t *testing.T) {
	for _, c := range []struct {
		name   string
		labels []string
	}{
		{"up", nil},
		{"speedtestd_http_request_duration_ns", []string{"status", "200", "route", "/ndt/v7/download"}},
		{"odd_values", []string{"b", "x,y", "a", "=}{", "c", ""}},
	} {
		id, pairs := seriesID(c.name, c.labels)
		name, labels, ok := SplitSeriesID(id)
		if !ok || name != c.name || !slices.Equal(labels, pairs) {
			t.Errorf("SplitSeriesID(%q) = %q, %q, %v; want %q, %q", id, name, labels, ok, c.name, pairs)
		}
	}
	for _, bad := range []string{
		"", "{}", "9up", "up{}", "up{", `up{a="1"`, `up{a="1"}x`, `up{a="1",}`,
		`up{b="1",a="2"}`, `up{a="1",a="2"}`, `up{a=1}`, `up{a b="1"}`, `up{a="1"b="2"}`,
	} {
		if name, labels, ok := SplitSeriesID(bad); ok {
			t.Errorf("SplitSeriesID(%q) = %q, %q; want refused", bad, name, labels)
		}
	}
}

// FuzzSplitSeriesID feeds the splitter arbitrary strings, as a daemon's
// reply may hold: it must not panic, and whatever it accepts must be the id
// seriesID renders from the parts.
func FuzzSplitSeriesID(f *testing.F) {
	f.Add(`speedtestd_http_request_duration_ns{route="/servers.json",status="200"}`)
	f.Add(`ookla_command_duration_ns{cmd="PING"}`)
	f.Add(`x{a="",b="}{,="}`)
	f.Fuzz(func(t *testing.T, id string) {
		name, labels, ok := SplitSeriesID(id)
		if !ok {
			return
		}
		if got, _ := seriesID(name, labels); got != id {
			t.Fatalf("SplitSeriesID(%q) = %q, %q, which seriesID renders as %q", id, name, labels, got)
		}
	})
}

// TestWritePromDuringRegistration is the -race regression test for the
// WriteProm data race: dumps must snapshot metric pointers under the lock
// instead of iterating the live maps while registration grows them.
func TestWritePromDuringRegistration(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			r.Counter("churn_total", "i", fmt.Sprintf("%d", i%512)).Inc()
			r.Histogram("churn_ns", "i", fmt.Sprintf("%d", i%512)).Observe(float64(i))
		}
	}()
	for i := 0; i < 200; i++ {
		var buf bytes.Buffer
		if err := r.WriteProm(&buf); err != nil {
			t.Fatalf("WriteProm: %v", err)
		}
		r.Samples()
	}
	close(stop)
	wg.Wait()
}

func TestObserveRejectsNonFinite(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("lat_ns")
	h.Observe(5)
	h.Observe(math.NaN())
	h.Observe(math.Inf(1))
	h.Observe(math.Inf(-1))
	if h.Count() != 1 {
		t.Fatalf("count = %d, want 1 (non-finite observations dropped)", h.Count())
	}
	if h.Sum() != 5 {
		t.Fatalf("sum = %g, want 5 — NaN/Inf poisoned the sum", h.Sum())
	}
}

func TestGaugeAddRejectsNonFinite(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(math.NaN())
	g.Add(math.Inf(1))
	if g.Value() != 3 {
		t.Fatalf("gauge = %g, want 3 — non-finite delta applied", g.Value())
	}
	// Set remains unguarded by design: an explicit Set(NaN) is a caller
	// choice, not accumulation poisoning.
	g.Set(math.Inf(1))
	if !math.IsInf(g.Value(), 1) {
		t.Fatal("Set(+Inf) should store +Inf")
	}
}

func TestObserveHugeValues(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	h := r.Histogram("lat_ns")
	huge := []float64{
		float64(uint64(1) << 39),   // exactly the top finite bound
		float64(uint64(1)<<39) + 1, // just past it
		math.MaxFloat64,            // would overflow uint64(math.Ceil(v))
		float64(uint64(1) << 63),   // 2^63, undefined in float→uint64
		math.Nextafter(1e300, math.Inf(1)),
	}
	for _, v := range huge {
		h.Observe(v)
	}
	if h.Count() != uint64(len(huge)) {
		t.Fatalf("count = %d, want %d", h.Count(), len(huge))
	}
	// The top finite bound lands in the last finite bucket; everything
	// bigger must land in the overflow bucket, never a garbage index.
	if got := h.buckets[histBuckets-1].Load(); got != 1 {
		t.Fatalf("top finite bucket = %d, want 1", got)
	}
	if got := h.buckets[histBuckets].Load(); got != uint64(len(huge)-1) {
		t.Fatalf("overflow bucket = %d, want %d", got, len(huge)-1)
	}
}

func TestBucketIndexBounds(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0},
		{1, 0},
		{1.5, 1},
		{2, 1},
		{3, 2},
		{float64(uint64(1) << 39), histBuckets - 1},
		{float64(uint64(1)<<39) + 1, histBuckets},
		{float64(uint64(1) << 62), histBuckets},
		{float64(uint64(1) << 63), histBuckets},
		{math.MaxFloat64, histBuckets},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%g) = %d, want %d", c.v, got, c.want)
		}
	}
}
