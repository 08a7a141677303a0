package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/tsdb"
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
	for _, s := range reg.Samples() {
		if s.Kind != obs.KindHistogram {
			continue
		}
		if n, ok := want[s.ID]; ok {
			if s.Count != n {
				t.Errorf("%s count = %d, want %d", s.ID, s.Count, n)
			}
			delete(want, s.ID)
		} else {
			t.Errorf("unexpected series %s (count %d)", s.ID, s.Count)
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

	found := false
	for _, s := range reg.Samples() {
		if s.ID == HTTPDurationFamily+`{route="/ws",status="101"}` {
			found = true
			if s.Count != 1 {
				t.Fatalf("hijack series count = %d, want 1", s.Count)
			}
		}
	}
	if !found {
		t.Fatal("no status=101 series recorded for the hijacked request")
	}
}

func TestHistoryHandler(t *testing.T) {
	st := tsdb.NewStore()
	for i := int64(0); i < 5; i++ {
		if err := st.Insert("m_total", tsdb.Tags{"route": "/a"}, time.Unix(100+i, 0).UTC(), map[string]float64{"value": float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Insert("m_total", tsdb.Tags{"route": "/b"}, time.Unix(102, 0).UTC(), map[string]float64{"value": 9}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(&HistoryHandler{Store: st})
	defer srv.Close()

	get := func(query string) (*http.Response, HistoryResponse) {
		resp, err := http.Get(srv.URL + "/debug/obs/history?" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hr HistoryResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
				t.Fatalf("decode: %v", err)
			}
		}
		return resp, hr
	}

	// Missing measurement → 400 with a JSON error body.
	resp, _ := get("")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("no measurement: status %d, want 400", resp.StatusCode)
	}

	// Full fetch: both series, window-inclusive `to`.
	_, hr := get("measurement=m_total&from=100&to=104")
	if len(hr.Series) != 2 {
		t.Fatalf("series = %d, want 2", len(hr.Series))
	}
	var a, b *HistorySeries
	for i := range hr.Series {
		switch hr.Series[i].Tags["route"] {
		case "/a":
			a = &hr.Series[i]
		case "/b":
			b = &hr.Series[i]
		}
	}
	if a == nil || b == nil {
		t.Fatalf("missing series: %+v", hr.Series)
	}
	if len(a.Points) != 5 {
		t.Fatalf("/a points = %d, want 5 (to must be inclusive)", len(a.Points))
	}
	if len(b.Points) != 1 || b.Points[0].Fields["value"] != 9 {
		t.Fatalf("/b points = %+v", b.Points)
	}

	// Tag filter.
	_, hr = get("measurement=m_total&tag.route=%2Fb")
	if len(hr.Series) != 1 || hr.Series[0].Tags["route"] != "/b" {
		t.Fatalf("tag filter: %+v", hr.Series)
	}

	// Windowing cuts the early points.
	_, hr = get("measurement=m_total&from=103&tag.route=%2Fa")
	if len(hr.Series) != 1 || len(hr.Series[0].Points) != 2 {
		t.Fatalf("windowed: %+v", hr.Series)
	}

	// ToSeries round-trip keeps timestamps and fields.
	series := hr.ToSeries()
	if len(series) != 1 || series[0].Points[0].Time.Unix() != 103 {
		t.Fatalf("ToSeries: %+v", series)
	}

	// Unknown measurement: empty but well-formed.
	resp, hr = get("measurement=nope_total")
	if resp.StatusCode != http.StatusOK || hr.Series == nil || len(hr.Series) != 0 {
		t.Fatalf("unknown measurement: status %d, series %+v", resp.StatusCode, hr.Series)
	}

	// Bad time → 400.
	resp, _ = get("measurement=m_total&from=tuesday")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad from: status %d, want 400", resp.StatusCode)
	}
}

func TestIntrospectionEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.SetEnabled(true)
	reg.Counter("campaign_tests_scheduled_total", "region", "r1").Add(3)
	st := tsdb.NewStore()
	if err := st.Insert("x_total", nil, time.Unix(1, 0).UTC(), map[string]float64{"value": 1}); err != nil {
		t.Fatal(err)
	}

	d, err := StartDebug("127.0.0.1:0", Introspection{Registry: reg, History: st, Progress: true})
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
	if code, b := body("/debug/obs/history?measurement=x_total"); code != 200 || !strings.Contains(b, `"series"`) {
		t.Fatalf("/debug/obs/history: %d %q", code, b)
	}
	// pprof index answers; that's enough to know the handlers are wired.
	if code, _ := body("/debug/pprof/"); code != 200 {
		t.Fatalf("/debug/pprof/: %d", code)
	}
}
