package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
)

func TestHTTPMetricsRoutesAndStatuses(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	m := NewHTTPMetrics(reg, []string{"/servers.json", "/speedtest/", "/metrics"})

	mux := http.NewServeMux()
	mux.HandleFunc("/servers.json", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	mux.HandleFunc("/speedtest/latency", func(w http.ResponseWriter, r *http.Request) { fmt.Fprint(w, "ok") })
	mux.HandleFunc("/missing", func(w http.ResponseWriter, r *http.Request) { http.NotFound(w, r) })
	srv := httptest.NewServer(m.Wrap(mux))
	defer srv.Close()

	for _, path := range []string{"/servers.json", "/speedtest/latency", "/speedtest/upload", "/missing", "/also-missing"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}

	want := map[string]uint64{
		HTTPDurationFamily + `{route="/servers.json",status="200"}`: 1,
		HTTPDurationFamily + `{route="/speedtest/",status="200"}`:   1, // latency, exact-ish
		HTTPDurationFamily + `{route="/speedtest/",status="404"}`:   1, // upload has no handler
		HTTPDurationFamily + `{route="other",status="404"}`:         2, // /missing and /also-missing
	}
	for id, v := range reg.Snapshot() {
		hv, ok := v.(obs.HistogramValue)
		if !ok {
			continue
		}
		if n, ok := want[id]; ok {
			if hv.Count != n {
				t.Errorf("%s count = %d, want %d", id, hv.Count, n)
			}
			delete(want, id)
		} else {
			t.Errorf("unexpected series %s (count %d)", id, hv.Count)
		}
	}
	for id := range want {
		t.Errorf("missing series %s", id)
	}
}

// TestHTTPMetricsHijack pins that the middleware's recorder forwards
// http.Hijacker — without it, wsock.Upgrade (ndt7's WebSocket path) fails
// on every instrumented route — and that a hijacked connection records as
// status 101.
func TestHTTPMetricsHijack(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	m := NewHTTPMetrics(reg, []string{"/ws"})

	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("middleware hid http.Hijacker from the handler")
			http.Error(w, "no hijack", http.StatusInternalServerError)
			return
		}
		conn, bw, err := hj.Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		defer conn.Close()
		_, _ = bw.WriteString("HTTP/1.1 101 Switching Protocols\r\n\r\n")
		_ = bw.Flush()
	})
	// The client returns as soon as the hijacked handler flushes its 101,
	// which is before Wrap records the observation (it does so after the
	// inner handler returns): wait for the wrapped handler itself.
	wrapped := m.Wrap(handler)
	returned := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer close(returned)
		wrapped.ServeHTTP(w, r)
	}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/ws")
	if err == nil {
		resp.Body.Close()
	}
	select {
	case <-returned:
	case <-time.After(10 * time.Second):
		t.Fatal("wrapped handler did not return")
	}

	hv, found := reg.Snapshot()[HTTPDurationFamily+`{route="/ws",status="101"}`].(obs.HistogramValue)
	if found && hv.Count != 1 {
		t.Fatalf("hijack series count = %d, want 1", hv.Count)
	}
	if !found {
		t.Fatal("no status=101 series recorded for the hijacked request")
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("campaign_tests_scheduled_total", "region", "r1").Add(3)
	d, err := StartDebug("127.0.0.1:0", Introspection{Registry: reg, Progress: true})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	base := "http://" + d.Addr().String()

	body := func(path string) (int, string) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	if code, b := body("/metrics"); code != 200 || !strings.Contains(b, `campaign_tests_scheduled_total{region="r1"} 3`) {
		t.Fatalf("/metrics: %d %q", code, b)
	}
	if code, b := body("/progress"); code != 200 || !strings.Contains(b, `"region": "r1"`) {
		t.Fatalf("/progress: %d %q", code, b)
	}
	// pprof index answers; that's enough to know the handlers are wired.
	if code, _ := body("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
