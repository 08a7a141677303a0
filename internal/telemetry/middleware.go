package telemetry

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

// HTTPMetrics records per-route, per-status request-duration histograms
// for an HTTP handler chain. Route values come from a fixed allow-list so
// label cardinality stays bounded no matter what paths clients probe:
// exact entries match verbatim, entries ending in "/" match as prefixes,
// everything else collapses to "other".
type HTTPMetrics struct {
	reg      *obs.Registry
	exact    map[string]string
	prefixes []string

	hists sync.Map // route + "\x00" + status -> *obs.Histogram
}

// HTTPDurationFamily is the serving-path histogram family the middleware
// records (nanoseconds, labelled route/status); the request total is the
// sum of its _count series.
const HTTPDurationFamily = "speedtestd_http_request_duration_ns"

// NewHTTPMetrics builds middleware recording into HTTPDurationFamily on
// reg. routes is the allow-list; entries ending in "/" match by prefix.
func NewHTTPMetrics(reg *obs.Registry, routes []string) *HTTPMetrics {
	m := &HTTPMetrics{
		reg:   reg,
		exact: make(map[string]string, len(routes)),
	}
	for _, r := range routes {
		if strings.HasSuffix(r, "/") {
			m.prefixes = append(m.prefixes, r)
		}
		m.exact[r] = r
	}
	return m
}

// route maps a request path onto its bounded label value.
func (m *HTTPMetrics) route(path string) string {
	if r, ok := m.exact[path]; ok {
		return r
	}
	for _, p := range m.prefixes {
		if strings.HasPrefix(path, p) {
			return p
		}
	}
	return "other"
}

// histogram interns the (route, status) handle so the steady-state request
// path costs one sync.Map load instead of a registry lock.
func (m *HTTPMetrics) histogram(route, status string) *obs.Histogram {
	key := route + "\x00" + status
	if h, ok := m.hists.Load(key); ok {
		return h.(*obs.Histogram)
	}
	h := m.reg.Histogram(HTTPDurationFamily, "route", route, "status", status)
	m.hists.Store(key, h)
	return h
}

// Wrap instruments next. The recorder forwards Hijack and Flush so
// WebSocket upgrades (ndt7 over wsock) and streaming responses work
// through the middleware; a hijacked connection records as status 101.
func (m *HTTPMetrics) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		next.ServeHTTP(rec, r)
		m.histogram(m.route(r.URL.Path), rec.statusLabel()).Observe(float64(time.Since(start)))
	})
}

// statusRecorder captures the response status while passing the optional
// http.Hijacker / http.Flusher interfaces through to the real writer —
// wsock.Upgrade type-asserts Hijacker, so a wrapper that hides it would
// break every WebSocket route.
type statusRecorder struct {
	http.ResponseWriter
	status   int
	hijacked bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (r *statusRecorder) Hijack() (net.Conn, *bufio.ReadWriter, error) {
	h, ok := r.ResponseWriter.(http.Hijacker)
	if !ok {
		return nil, nil, fmt.Errorf("telemetry: underlying ResponseWriter does not support hijacking")
	}
	r.hijacked = true
	return h.Hijack()
}

// statusLabel renders the final status as a metric label: an explicit
// code, 101 for hijacked (upgraded) connections, 200 for an implicit OK.
func (r *statusRecorder) statusLabel() string {
	switch {
	case r.hijacked && r.status == 0:
		return "101"
	case r.status == 0:
		return "200"
	default:
		return strconv.Itoa(r.status)
	}
}
