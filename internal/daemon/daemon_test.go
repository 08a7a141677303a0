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
		OoklaAddr:      "127.0.0.1:0",
		HTTPAddr:       "127.0.0.1:0",
		NDT7Duration:   200 * time.Millisecond,
		ScrapeInterval: 50 * time.Millisecond,
		Logf:           t.Logf,
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
	for _, s := range obs.Default().Samples() {
		if s.ID == id {
			return s.Count
		}
	}
	return 0
}

// TestDaemonServesAndInstruments drives every protocol through the full
// in-process daemon and asserts the serving-path histograms and the scraped
// history endpoint work.
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

	// Force a scrape so /debug/obs/history has fresh data, then query the
	// serving-path family's history through the HTTP surface itself.
	if err := d.Pipeline.Cycle(); err != nil {
		t.Fatalf("cycle: %v", err)
	}
	resp, err = http.Get(base + "/debug/obs/history?measurement=speedtestd_http_request_duration_ns_bucket")
	if err != nil {
		t.Fatal(err)
	}
	var hr telemetry.HistoryResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatalf("history decode: %v", err)
	}
	resp.Body.Close()
	if len(hr.Series) == 0 {
		t.Fatal("no scraped bucket series in /debug/obs/history")
	}
	if hr.Measurement != "speedtestd_http_request_duration_ns_bucket" {
		t.Errorf("history echoes measurement %q", hr.Measurement)
	}
	seenRoute := false
	for _, s := range hr.Series {
		if s.Tags["route"] == "/servers.json" && s.Tags["le"] != "" {
			seenRoute = true
		}
		// What loadgen's quantile reconstruction reads off every series.
		if s.Tags["le"] == "" || s.Tags["route"] == "" || s.Tags["status"] == "" || len(s.Points) == 0 {
			t.Errorf("bucket series %v with %d points: want le, route and status tags and at least one point", s.Tags, len(s.Points))
		}
		for _, p := range s.Points {
			if _, ok := p.Fields["cum"]; !ok {
				t.Errorf("bucket series %v point lacks the cum field: %v", s.Tags, p.Fields)
			}
		}
	}
	if !seenRoute {
		t.Fatalf("no /servers.json bucket series; got %d series", len(hr.Series))
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

// TestDaemonScraperRunsOnCadence waits, without forcing a scrape, until
// /debug/obs/history answers with a series two background scrapes wrote.
func TestDaemonScraperRunsOnCadence(t *testing.T) {
	d := startTest(t)
	defer shutdown(t, d)
	url := "http://" + d.HTTPAddr().String() + "/debug/obs/history?measurement=tsdb_inserts_total"
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var hr telemetry.HistoryResponse
		err = json.NewDecoder(resp.Body).Decode(&hr)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("history decode: %v", err)
		}
		if len(hr.Series) > 0 && len(hr.Series[0].Points) >= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("scraper did not run twice on its cadence")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
