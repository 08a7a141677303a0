package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeAppender records every Append call for inspection.
type fakeAppender struct {
	mu    sync.Mutex
	fail  bool
	lines []string
}

func (f *fakeAppender) Append(measurement string, tags map[string]string, at time.Time, fields map[string]float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail {
		return fmt.Errorf("sink down")
	}
	tk := make([]string, 0, len(tags))
	for k := range tags {
		tk = append(tk, k)
	}
	sort.Strings(tk)
	var tb strings.Builder
	for _, k := range tk {
		fmt.Fprintf(&tb, ",%s=%s", k, tags[k])
	}
	fk := make([]string, 0, len(fields))
	for k := range fields {
		fk = append(fk, k)
	}
	sort.Strings(fk)
	var fb strings.Builder
	for i, k := range fk {
		if i > 0 {
			fb.WriteByte(' ')
		}
		fmt.Fprintf(&fb, "%s=%g", k, fields[k])
	}
	f.lines = append(f.lines, fmt.Sprintf("%s%s @%d %s", measurement, tb.String(), at.Unix(), fb.String()))
	return nil
}

func (f *fakeAppender) sorted() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := append([]string(nil), f.lines...)
	sort.Strings(out)
	return out
}

// TestScraperDeterministicSeries pins the exact series contents produced by
// two scrape cycles under a fake clock: counter value+rate, gauge value,
// histogram family count/sum/rate and cumulative le-tagged buckets.
func TestScraperDeterministicSeries(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	c := r.Counter("reqs_total", "route", "/metrics")
	g := r.Gauge("depth")
	h := r.Histogram("lat_ns")

	c.Add(10)
	g.Set(3.5)
	h.Observe(1) // bucket le=1
	h.Observe(3) // bucket le=4

	now := time.Unix(1000, 0).UTC()
	app := &fakeAppender{}
	sc := NewScraper(r, app, ScrapeConfig{Now: func() time.Time { return now }})

	if err := sc.ScrapeOnce(); err != nil {
		t.Fatalf("first scrape: %v", err)
	}
	now = now.Add(10 * time.Second)
	c.Add(50)    // rate 5/s over the 10s window
	h.Observe(3) // second point in le=4
	if err := sc.ScrapeOnce(); err != nil {
		t.Fatalf("second scrape: %v", err)
	}

	want := []string{
		// First pass (t=1000): rates are 0, no history yet.
		"depth @1000 value=3.5",
		"lat_ns @1000 count=2 rate=0 sum=4",
		"lat_ns_bucket,le=1 @1000 cum=1",
		"lat_ns_bucket,le=4 @1000 cum=2",
		"reqs_total,route=/metrics @1000 rate=0 value=10",
		// Second pass (t=1010): counter 10→60 is 5/s, histogram 2→3 is 0.1/s.
		"depth @1010 value=3.5",
		"lat_ns @1010 count=3 rate=0.1 sum=7",
		"lat_ns_bucket,le=1 @1010 cum=1",
		"lat_ns_bucket,le=4 @1010 cum=3",
		"reqs_total,route=/metrics @1010 rate=5 value=60",
	}
	sort.Strings(want)
	got := app.sorted()
	if len(got) != len(want) {
		t.Fatalf("appended %d points, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}

	st := sc.Stats()
	if st.Scrapes != 2 || st.Errors != 0 {
		t.Fatalf("stats = %+v, want 2 scrapes, 0 errors", st)
	}
	if st.Samples != uint64(len(want)) {
		t.Fatalf("stats.Samples = %d, want %d", st.Samples, len(want))
	}
	if !st.Last.Equal(now) {
		t.Fatalf("stats.Last = %v, want %v", st.Last, now)
	}
}

func TestScraperAppendErrorsCounted(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("a_total").Add(1)
	r.Counter("b_total").Add(1)

	app := &fakeAppender{fail: true}
	sc := NewScraper(r, app, ScrapeConfig{Now: func() time.Time { return time.Unix(0, 0) }})
	if err := sc.ScrapeOnce(); err == nil {
		t.Fatal("scrape into a failing sink returned nil error")
	}
	st := sc.Stats()
	if st.Errors != 2 {
		t.Fatalf("stats.Errors = %d, want 2 (one per series, pass continues past failures)", st.Errors)
	}
	if st.Samples != 0 {
		t.Fatalf("stats.Samples = %d, want 0", st.Samples)
	}
}

func TestScraperCounterResetYieldsZeroRate(t *testing.T) {
	// deltaRate guards cur < old (a restarted process re-registering) by
	// reporting 0 instead of a huge unsigned wraparound.
	prev := map[string]uint64{"x": 100}
	if got := deltaRate(prev, "x", 40, 10); got != 0 {
		t.Fatalf("rate after reset = %g, want 0", got)
	}
	if got := deltaRate(prev, "x", 90, 10); got != 5 {
		t.Fatalf("rate after recovery = %g, want 5", got)
	}
}

// TestSamplesSnapshot pins the structured snapshot contract: sorted by id,
// kinds discriminated, labels as sorted pairs, cumulative populated buckets.
func TestSamplesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.SetEnabled(true)
	r.Counter("zz_total", "b", "2", "a", "1").Add(7)
	r.Gauge("gg").Set(-2.5)
	h := r.Histogram("hh_ns")
	h.Observe(100) // le=128
	h.Observe(5)   // le=8
	h.Observe(5)

	got := r.Samples()
	if len(got) != 3 {
		t.Fatalf("Samples returned %d entries, want 3", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].ID < got[j].ID }) {
		t.Fatal("Samples not sorted by id")
	}
	if s := got[0]; s.ID != "gg" || s.Kind != KindGauge || s.Value != -2.5 {
		t.Fatalf("gauge sample = %+v", s)
	}
	if s := got[1]; s.ID != "hh_ns" || s.Kind != KindHistogram || s.Count != 3 || s.Sum != 110 {
		t.Fatalf("histogram sample = %+v", s)
	}
	wantBuckets := []BucketCount{{LE: 8, Cum: 2}, {LE: 128, Cum: 3}}
	if len(got[1].Buckets) != len(wantBuckets) {
		t.Fatalf("histogram buckets = %+v, want %+v", got[1].Buckets, wantBuckets)
	}
	for i, b := range wantBuckets {
		if got[1].Buckets[i] != b {
			t.Fatalf("bucket %d = %+v, want %+v", i, got[1].Buckets[i], b)
		}
	}
	if s := got[2]; s.ID != `zz_total{a="1",b="2"}` || s.Kind != KindCounter || s.Counter != 7 {
		t.Fatalf("counter sample = %+v", s)
	}
	if want := []string{"a", "1", "b", "2"}; len(got[2].Labels) != 4 ||
		got[2].Labels[0] != want[0] || got[2].Labels[1] != want[1] ||
		got[2].Labels[2] != want[2] || got[2].Labels[3] != want[3] {
		t.Fatalf("counter labels = %v, want %v", got[2].Labels, want)
	}
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
