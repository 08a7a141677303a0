package daemon

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
	"github.com/clasp-measurement/clasp/internal/speedtest/ookla"
	"github.com/clasp-measurement/clasp/internal/telemetry"
)

// startTest boots a daemon on ephemeral ports with fast test settings.
func startTest(t *testing.T) *Daemon {
	t.Helper()
	d, err := Start(Config{
		OoklaAddr:    "127.0.0.1:0",
		HTTPAddr:     "127.0.0.1:0",
		NDT7Duration: 200 * time.Millisecond,
		Logf:         t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func shutdown(t *testing.T, d *Daemon) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := d.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func histCount(id string) uint64 {
	hv, _ := obs.Default().Snapshot()[id].(obs.HistogramValue)
	return hv.Count
}

// TestDaemonServesAndInstruments drives every protocol through the full
// in-process daemon and asserts the serving-path histograms move.
func TestDaemonServesAndInstruments(t *testing.T) {
	d := startTest(t)
	base := "http://" + d.HTTPAddr().String()

	before := histCount(`speedtestd_http_request_duration_ns{route="/servers.json",status="200"}`)
	resp, err := http.Get(base + "/servers.json")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/servers.json: %d", resp.StatusCode)
	}

	// ndt7 runs over WebSocket: it only works if the middleware's recorder
	// forwards http.Hijacker, and it must record as status 101.
	nBefore := histCount(`speedtestd_http_request_duration_ns{route="` + ndt7.DownloadPath + `",status="101"}`)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if _, err := ndt7.NewClient(ndt7.Config{Duration: 100 * time.Millisecond}).Run(ctx, d.HTTPAddr().String()); err != nil {
		t.Fatalf("ndt7 client through middleware: %v", err)
	}
	if got := histCount(`speedtestd_http_request_duration_ns{route="` + ndt7.DownloadPath + `",status="101"}`); got != nBefore+1 {
		t.Fatalf("ndt7 download 101 count = %d, want %d", got, nBefore+1)
	}

	// Ookla over real TCP; the per-command histograms move.
	pingBefore := histCount(`ookla_command_duration_ns{cmd="PING"}`)
	if _, err := ookla.NewClient(ookla.Config{
		PingCount:        2,
		DownloadDuration: 50 * time.Millisecond,
		UploadDuration:   50 * time.Millisecond,
		BlockBytes:       64 << 10,
	}).Run(ctx, d.OoklaAddr().String()); err != nil {
		t.Fatalf("ookla client: %v", err)
	}
	if got := histCount(`ookla_command_duration_ns{cmd="PING"}`); got != pingBefore+2 {
		t.Fatalf("ookla PING count = %d, want %d", got, pingBefore+2)
	}

	if got := histCount(`speedtestd_http_request_duration_ns{route="/servers.json",status="200"}`); got != before+1 {
		t.Fatalf("/servers.json histogram count = %d, want %d", got, before+1)
	}

	// pprof and expvar stay reachable through the middleware.
	for _, path := range []string{"/debug/pprof/", "/debug/vars", "/metrics"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
	}

	// /metrics must NOT carry the deleted bare request counter.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(b), "speedtestd_http_requests_total") {
		t.Fatal("stale speedtestd_http_requests_total still exposed")
	}
	if !strings.Contains(string(b), "speedtestd_http_request_duration_ns_count") {
		t.Fatal("labelled duration family missing from /metrics")
	}

	shutdown(t, d)
}

// TestDebugVarsCarriesServingPath reads what loadgen reads: after one
// request, /debug/vars holds that request's serving-path histogram as a
// snapshot. The retired history path is no route of its own any more: the
// root handler answers it, and it records under the root's prefix entry.
func TestDebugVarsCarriesServingPath(t *testing.T) {
	d := startTest(t)
	defer shutdown(t, d)
	base := "http://" + d.HTTPAddr().String()
	get := func(path string) *http.Response {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("/servers.json")
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	resp = get("/debug/vars")
	var vars struct {
		Obs map[string]json.RawMessage `json:"clasp_obs"`
	}
	err := json.NewDecoder(resp.Body).Decode(&vars)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("/debug/vars decode: %v", err)
	}
	var hv obs.HistogramValue
	id := telemetry.HTTPDurationFamily + `{route="/servers.json",status="200"}`
	if err := json.Unmarshal(vars.Obs[id], &hv); err != nil || hv.Count == 0 || len(hv.Buckets) == 0 {
		t.Fatalf("/debug/vars %s = %s (%v), want a histogram with observations", id, vars.Obs[id], err)
	}

	root := telemetry.HTTPDurationFamily + `{route="/",status="200"}`
	before := histCount(root)
	resp = get("/debug/obs/history?measurement=x")
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || strings.Contains(string(b), "history") {
		t.Fatalf("/debug/obs/history: %d %q, want the root banner, which names no history", resp.StatusCode, b)
	}
	// The middleware records after the handler returns, which can be after
	// the client has read the reply.
	deadline := time.Now().Add(5 * time.Second)
	for histCount(root) != before+1 {
		if time.Now().After(deadline) {
			t.Fatalf("%s count = %d, want %d", root, histCount(root), before+1)
		}
		time.Sleep(time.Millisecond)
	}
}
