package obs

import (
	"io"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer emits phase-scoped span events as JSON lines, one object per
// completed span: {"span","id","parent","start","dur_ns","attrs"}. It is
// disabled until SetWriter installs a destination; while disabled, Span and
// every Span method are zero-allocation no-ops, so per-test spans on the
// orchestrator's hot path cost a single atomic load when tracing is off.
//
// Spans form the campaign hierarchy (campaign → round → vm-hour → test)
// through Child, which stamps the parent span id into the event; offline
// tools reassemble the tree from (id, parent).
type Tracer struct {
	enabled atomic.Bool
	ids     atomic.Uint64

	mu sync.Mutex
	w  io.Writer
}

// SetWriter installs the span event destination; nil disables the tracer.
func (t *Tracer) SetWriter(w io.Writer) {
	t.mu.Lock()
	t.w = w
	t.mu.Unlock()
	t.enabled.Store(w != nil)
}

// Enabled reports whether spans are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Trace starts a span on the default registry's tracer.
func Trace(name string) Span { return defaultRegistry.tracer.Span(name) }

// TraceEnabled reports whether the default registry's tracer is recording.
func TraceEnabled() bool { return defaultRegistry.tracer.Enabled() }

// SetTraceWriter installs the default tracer's destination (nil disables).
func SetTraceWriter(w io.Writer) { defaultRegistry.tracer.SetWriter(w) }

// spanAttrs bounds the attribute pairs one span can carry; later With calls
// are dropped. Six pairs cover the deepest CLASP span (test: server, tier,
// dir, hour, plus slack).
const spanAttrs = 6

// Span is one in-flight trace span. It is a value type: starting, tagging
// and ending a span allocates nothing beyond the final event write, and the
// zero Span (returned while tracing is disabled) no-ops every method.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	nattrs int
	attrs  [2 * spanAttrs]string
}

// Span starts a root span. Returns the zero Span while disabled.
func (t *Tracer) Span(name string) Span {
	if t == nil || !t.enabled.Load() {
		return Span{}
	}
	return Span{tr: t, id: t.ids.Add(1), name: name, start: time.Now()}
}

// Child starts a span whose event records this span as its parent.
func (s Span) Child(name string) Span {
	if s.tr == nil {
		return Span{}
	}
	c := s.tr.Span(name)
	c.parent = s.id
	return c
}

// With attaches a key/value attribute and returns the updated span. Values
// beyond the fixed capacity are dropped.
func (s Span) With(k, v string) Span {
	if s.tr == nil || s.nattrs >= spanAttrs {
		return s
	}
	s.attrs[2*s.nattrs] = k
	s.attrs[2*s.nattrs+1] = v
	s.nattrs++
	return s
}

// WithInt attaches an integer attribute. The conversion only runs when the
// span is live, keeping the disabled path allocation-free.
func (s Span) WithInt(k string, v int) Span {
	if s.tr == nil {
		return s
	}
	return s.With(k, strconv.Itoa(v))
}

// End completes the span and writes its event. No-op on the zero Span.
func (s Span) End() {
	if s.tr == nil {
		return
	}
	dur := time.Since(s.start)
	// Build the JSON line without encoding/json: span names and attribute
	// keys are code-controlled identifiers, and values pass through
	// strconv.Quote, so the output is always valid JSON.
	buf := make([]byte, 0, 192)
	buf = append(buf, `{"span":`...)
	buf = strconv.AppendQuote(buf, s.name)
	buf = append(buf, `,"id":`...)
	buf = strconv.AppendUint(buf, s.id, 10)
	if s.parent != 0 {
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendUint(buf, s.parent, 10)
	}
	buf = append(buf, `,"start":`...)
	buf = strconv.AppendQuote(buf, s.start.UTC().Format(time.RFC3339Nano))
	buf = append(buf, `,"dur_ns":`...)
	buf = strconv.AppendInt(buf, dur.Nanoseconds(), 10)
	if s.nattrs > 0 {
		buf = append(buf, `,"attrs":{`...)
		for i := 0; i < s.nattrs; i++ {
			if i > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendQuote(buf, s.attrs[2*i])
			buf = append(buf, ':')
			buf = strconv.AppendQuote(buf, s.attrs[2*i+1])
		}
		buf = append(buf, '}')
	}
	buf = append(buf, '}', '\n')

	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	if s.tr.w != nil {
		_, _ = s.tr.w.Write(buf)
	}
}
