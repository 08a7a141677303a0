// Package obs is CLASP's observability layer: a dependency-free,
// concurrency-safe metrics registry (counters, gauges, and histograms with
// fixed log-scale buckets) plus lightweight phase-scoped tracing spans
// (trace.go). It exists so the campaign engine's load-bearing subsystems —
// the bgp route caches, the netsim flow cache, the sharded tsdb store, the
// orchestrator's phases — expose what they are doing at runtime without
// perturbing what they compute.
//
// # Disabled-path invariant
//
// The registry starts disabled. Every update operation (Counter.Add,
// Gauge.Set, Histogram.Observe, Tracer spans) first loads one atomic bool
// and returns; the disabled path performs zero heap allocations and no
// synchronisation beyond that load, so instrumented hot paths (netsim's
// warm Measure, tsdb inserts) keep their PR 2 performance when metrics are
// off. TestDisabledPathZeroAllocs and the BenchmarkObsDisabled* benchmarks
// in BENCH_obs.json pin this. Metrics never feed back into measurement
// arithmetic, so campaign results are bit-identical whether the registry is
// enabled or not (pinned by TestMetricsDoNotChangeResults in the
// orchestrator package).
//
// # Usage
//
// Instrumented packages register their metrics once at package init against
// the process-wide Default registry:
//
//	var cacheHits = obs.Default().Counter("bgp_tree_cache_hits_total")
//
// and update them unconditionally (updates no-op while disabled). Binaries
// that want telemetry call obs.SetEnabled(true) and dump the registry with
// WriteProm (Prometheus text format) or WriteJSON.
package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// MetricKind discriminates registered metric types — for conflict detection
// at registration and for consumers of the structured Samples snapshot.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
)

func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry holds named metrics. All methods are safe for concurrent use:
// registration takes a mutex (cold path), updates are lock-free atomics.
// The zero registry is not usable; create one with NewRegistry or use the
// process-wide Default.
type Registry struct {
	enabled atomic.Bool
	tracer  Tracer

	mu         sync.Mutex
	kinds      map[string]MetricKind // series id -> kind
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry creates an empty, disabled registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:      make(map[string]MetricKind),
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// defaultRegistry is the process-wide registry every instrumented package
// registers against.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// SetEnabled turns metric collection on or off for the default registry.
func SetEnabled(on bool) { defaultRegistry.SetEnabled(on) }

// Enabled reports whether the default registry is collecting.
func Enabled() bool { return defaultRegistry.Enabled() }

// SetEnabled turns metric collection on or off.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is collecting.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// seriesID renders the canonical series identity — name plus a sorted,
// Prometheus-style label block ({k="v",...}) when labels are present — and
// returns the sorted alternating key/value pairs alongside it, which each
// metric keeps for structured snapshots (Samples) and the scraper.
func seriesID(name string, labels []string) (string, []string) {
	if err := validateName(name); err != nil {
		panic(err)
	}
	if len(labels) == 0 {
		return name, nil
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %s: odd label list (want key/value pairs)", name))
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if err := validateName(labels[i]); err != nil {
			panic(err)
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	sorted := make([]string, 0, len(labels))
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString("=\"")
		b.WriteString(p.v)
		b.WriteByte('"')
		sorted = append(sorted, p.k, p.v)
	}
	b.WriteByte('}')
	return b.String(), sorted
}

// validateName rejects identifiers that would corrupt the Prometheus text
// exposition ([a-zA-Z_:][a-zA-Z0-9_:]*).
func validateName(s string) error {
	if s == "" {
		return fmt.Errorf("obs: empty metric name")
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return fmt.Errorf("obs: invalid metric name %q", s)
		}
	}
	return nil
}

// checkKind records the series' kind, panicking when the same series id was
// already registered as a different metric type — duplicate names across
// kinds are programmer errors cmd/clasp's metrics-dump test also guards
// against. Callers hold r.mu.
func (r *Registry) checkKind(id string, k MetricKind) {
	if prev, ok := r.kinds[id]; ok && prev != k {
		panic(fmt.Sprintf("obs: metric %s already registered as %s, re-registered as %s", id, prev, k))
	}
	r.kinds[id] = k
}

// --- Counter -------------------------------------------------------------------

// Counter is a monotonically increasing uint64 metric. Updates are a single
// atomic add; while the registry is disabled they return after one atomic
// load with zero allocations.
type Counter struct {
	r          *Registry
	name       string   // metric family
	labelPairs []string // sorted alternating key/value pairs
	v          atomic.Uint64
}

// Counter registers (or fetches) a counter. labels are alternating
// key/value pairs; the same (name, labels) always returns the same counter.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	id, pairs := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(id, KindCounter)
	if c, ok := r.counters[id]; ok {
		return c
	}
	c := &Counter{r: r, name: name, labelPairs: pairs}
	r.counters[id] = c
	return c
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter. No-op while the registry is disabled.
func (c *Counter) Add(n uint64) {
	if c == nil || !c.r.enabled.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// --- Gauge ---------------------------------------------------------------------

// Gauge is a float64 metric that can go up and down (stored as atomic
// bits). Updates no-op while the registry is disabled.
type Gauge struct {
	r          *Registry
	name       string
	labelPairs []string
	bits       atomic.Uint64
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	id, pairs := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(id, KindGauge)
	if g, ok := r.gauges[id]; ok {
		return g
	}
	g := &Gauge{r: r, name: name, labelPairs: pairs}
	r.gauges[id] = g
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by delta (CAS loop; safe for concurrent use).
// Non-finite deltas are dropped — one NaN would stick the gauge at NaN for
// the rest of the process.
func (g *Gauge) Add(delta float64) {
	if g == nil || !g.r.enabled.Load() {
		return
	}
	if math.IsNaN(delta) || math.IsInf(delta, 0) {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// --- Histogram -----------------------------------------------------------------

// histBuckets is the fixed bucket count of every histogram: log-scale
// (power-of-two) upper bounds 1, 2, 4, ..., 2^39, plus an overflow bucket.
// 2^39 ns ≈ 9.2 minutes, comfortably covering every duration CLASP times in
// nanoseconds while keeping bucket lookup a single bits.Len64.
const histBuckets = 40

// Histogram counts observations in fixed log-scale buckets. Observe is an
// O(1) bit operation plus three atomic updates; it allocates nothing and,
// while the registry is disabled, returns after one atomic load.
type Histogram struct {
	r          *Registry
	name       string
	labels     string
	labelPairs []string
	count      atomic.Uint64
	sumBits    atomic.Uint64 // float64 sum, CAS-updated
	buckets    [histBuckets + 1]atomic.Uint64
}

// Histogram registers (or fetches) a histogram.
func (r *Registry) Histogram(name string, labels ...string) *Histogram {
	id, pairs := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.checkKind(id, KindHistogram)
	if h, ok := r.histograms[id]; ok {
		return h
	}
	h := &Histogram{r: r, name: name, labels: strings.TrimPrefix(id, name), labelPairs: pairs}
	r.histograms[id] = h
	return h
}

// bucketIndex maps an observation to its log-scale bucket: bucket i holds
// values v with 2^(i-1) < v <= 2^i (bucket 0 holds v <= 1).
func bucketIndex(v float64) int {
	if v <= 1 {
		return 0
	}
	if v > float64(uint64(1)<<(histBuckets-1)) {
		// Overflow bucket, decided in float space: float64→uint64
		// conversion is undefined for v >= 2^63, so values past the top
		// bound must never reach the conversion below.
		return histBuckets
	}
	u := uint64(math.Ceil(v))
	idx := bits.Len64(u - 1) // ceil(log2(u))
	if idx > histBuckets {
		return histBuckets // overflow (+Inf)
	}
	return idx
}

// BucketBound returns the inclusive upper bound of bucket i (+Inf for the
// overflow bucket). Exported for dump writers and tests.
func BucketBound(i int) float64 {
	if i >= histBuckets {
		return math.Inf(1)
	}
	return float64(uint64(1) << uint(i))
}

// Observe records one value. No-op while the registry is disabled.
// Non-finite observations (NaN, ±Inf) are dropped entirely: a single NaN
// would poison _sum forever, and an infinite duration carries no signal the
// overflow bucket doesn't already express.
func (h *Histogram) Observe(v float64) {
	if h == nil || !h.r.enabled.Load() {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// --- Dumps ---------------------------------------------------------------------

// HistogramValue is a histogram snapshot for the JSON dump: cumulative
// counts per populated bucket bound.
type HistogramValue struct {
	Count   uint64            `json:"count"`
	Sum     float64           `json:"sum"`
	Buckets map[string]uint64 `json:"buckets,omitempty"` // le -> cumulative count
}

// Snapshot returns a point-in-time copy of every metric, keyed by series id
// (counters as uint64, gauges as float64, histograms as HistogramValue).
// The map is freshly built and safe to mutate or marshal.
func (r *Registry) Snapshot() map[string]any {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]any, len(r.kinds))
	for id, c := range r.counters {
		out[id] = c.Value()
	}
	for id, g := range r.gauges {
		out[id] = g.Value()
	}
	for id, h := range r.histograms {
		hv := HistogramValue{Count: h.Count(), Sum: h.Sum()}
		var cum uint64
		for i := 0; i <= histBuckets; i++ {
			n := h.buckets[i].Load()
			cum += n
			if n == 0 {
				continue
			}
			if hv.Buckets == nil {
				hv.Buckets = make(map[string]uint64)
			}
			hv.Buckets[formatBound(BucketBound(i))] = cum
		}
		out[id] = hv
	}
	return out
}

func formatBound(b float64) string {
	if math.IsInf(b, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(b, 'g', -1, 64)
}

// metricRef is one registered series captured under r.mu: the id, its kind,
// and the live metric pointer. Snapshotting refs (not the maps themselves)
// lets dump and sample paths read atomics lock-free without racing against
// concurrent registration growing the maps.
type metricRef struct {
	id   string
	kind MetricKind
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// snapshotRefs copies every (id, kind, pointer) tuple under the lock and
// returns them sorted by series id.
func (r *Registry) snapshotRefs() []metricRef {
	r.mu.Lock()
	refs := make([]metricRef, 0, len(r.kinds))
	for id, c := range r.counters {
		refs = append(refs, metricRef{id: id, kind: KindCounter, c: c})
	}
	for id, g := range r.gauges {
		refs = append(refs, metricRef{id: id, kind: KindGauge, g: g})
	}
	for id, h := range r.histograms {
		refs = append(refs, metricRef{id: id, kind: KindHistogram, h: h})
	}
	r.mu.Unlock()
	sort.Slice(refs, func(i, j int) bool { return refs[i].id < refs[j].id })
	return refs
}

// WriteProm writes every metric in Prometheus text exposition format,
// sorted by series id, with one # TYPE line per family. Histograms emit
// cumulative _bucket{le=...}, _sum and _count series.
func (r *Registry) WriteProm(w io.Writer) error {
	typed := make(map[string]bool)
	for _, ref := range r.snapshotRefs() {
		switch ref.kind {
		case KindCounter:
			c := ref.c
			if !typed[c.name] {
				typed[c.name] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", c.name); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %d\n", ref.id, c.Value()); err != nil {
				return err
			}
		case KindGauge:
			g := ref.g
			if !typed[g.name] {
				typed[g.name] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", g.name); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %s\n", ref.id, strconv.FormatFloat(g.Value(), 'g', -1, 64)); err != nil {
				return err
			}
		case KindHistogram:
			h := ref.h
			if !typed[h.name] {
				typed[h.name] = true
				if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", h.name); err != nil {
					return err
				}
			}
			if err := writePromHistogram(w, h); err != nil {
				return err
			}
		}
	}
	return nil
}

// --- Structured samples ---------------------------------------------------------

// BucketCount is one populated histogram bucket in a MetricSample:
// cumulative count of observations <= LE.
type BucketCount struct {
	LE  float64
	Cum uint64
}

// MetricSample is one series in a structured registry snapshot. Exactly the
// fields matching Kind are meaningful: Counter for KindCounter, Value for
// KindGauge, Count/Sum/Buckets for KindHistogram.
type MetricSample struct {
	ID     string // canonical series id (name{k="v",...})
	Kind   MetricKind
	Name   string   // metric family name
	Labels []string // sorted alternating key/value pairs (nil when unlabelled)

	Counter uint64
	Value   float64
	Count   uint64
	Sum     float64
	Buckets []BucketCount // populated buckets only, cumulative, ascending LE
}

// Samples returns a point-in-time structured snapshot of every registered
// series, sorted by series id. Pointers are captured under the registration
// lock and values read atomically after it is released, so Samples is safe
// against concurrent registration and updates; it is the feed for the
// Scraper and the introspection endpoints.
func (r *Registry) Samples() []MetricSample {
	refs := r.snapshotRefs()
	out := make([]MetricSample, 0, len(refs))
	for _, ref := range refs {
		s := MetricSample{ID: ref.id, Kind: ref.kind}
		switch ref.kind {
		case KindCounter:
			s.Name = ref.c.name
			s.Labels = ref.c.labelPairs
			s.Counter = ref.c.Value()
		case KindGauge:
			s.Name = ref.g.name
			s.Labels = ref.g.labelPairs
			s.Value = ref.g.Value()
		case KindHistogram:
			h := ref.h
			s.Name = h.name
			s.Labels = h.labelPairs
			s.Count = h.Count()
			s.Sum = h.Sum()
			var cum uint64
			for i := 0; i <= histBuckets; i++ {
				n := h.buckets[i].Load()
				if n == 0 {
					continue
				}
				cum += n
				s.Buckets = append(s.Buckets, BucketCount{LE: BucketBound(i), Cum: cum})
			}
		}
		out = append(out, s)
	}
	return out
}

// writePromHistogram renders one histogram's _bucket/_sum/_count series.
// Only populated buckets (plus +Inf) are emitted to keep dumps compact;
// cumulative counts stay correct because they accumulate across skipped
// buckets.
func writePromHistogram(w io.Writer, h *Histogram) error {
	labels := strings.TrimSuffix(strings.TrimPrefix(h.labels, "{"), "}")
	var cum uint64
	for i := 0; i <= histBuckets; i++ {
		n := h.buckets[i].Load()
		cum += n
		if n == 0 && i != histBuckets {
			continue
		}
		le := formatBound(BucketBound(i))
		var err error
		if labels == "" {
			_, err = fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", h.name, le, cum)
		} else {
			_, err = fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", h.name, labels, le, cum)
		}
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", h.name, h.labels, strconv.FormatFloat(h.Sum(), 'g', -1, 64)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", h.name, h.labels, h.Count())
	return err
}
