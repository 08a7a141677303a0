package loadgen_test

import (
	"context"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/daemon"
	"github.com/clasp-measurement/clasp/internal/loadgen"
	"github.com/clasp-measurement/clasp/internal/speedtest/ndt7"
)

// TestBurstAgainstDaemon is the serving-path gate: a concurrent burst of
// real-protocol clients (ookla TCP, ndt7 WebSocket, xfinity HTTP) against
// the full speedtestd daemon on ephemeral ports must all succeed, and the
// percentiles Run rebuilds from the daemon's own histograms — middleware
// histogram, /debug/vars before and after the drive, windowed quantile —
// must show every protocol's route with sane values.
func TestBurstAgainstDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("real sockets under load in -short mode")
	}
	d, err := daemon.Start(daemon.Config{
		OoklaAddr:    "127.0.0.1:0",
		HTTPAddr:     "127.0.0.1:0",
		NDT7Duration: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		// Bounded and unchecked: a connection a client opened and never used
		// holds net/http's graceful drain for 5 s, and draining is
		// daemon_test's subject, not this test's.
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = d.Shutdown(ctx)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	res, err := loadgen.Run(ctx, loadgen.Config{
		HTTPAddr:  d.HTTPAddr().String(),
		OoklaAddr: d.OoklaAddr().String(),
		Clients:   24,
		PerClient: 2,
		Duration:  50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed > 0 || res.Succeeded != res.Requested {
		t.Fatalf("%d of %d tests succeeded, %d failed under load: %v", res.Succeeded, res.Requested, res.Failed, res.Errors)
	}

	seen := map[string]bool{}
	for _, q := range append(res.HTTP, res.Ookla...) {
		// reduce keeps only groups with observations in the window; NaN
		// fails both comparisons.
		if !(q.P50 > 0 && q.P50 <= q.P90 && q.P90 <= q.P99) {
			t.Errorf("%v: p50/p90/p99 = %v/%v/%v over %d observations", q.Tags, q.P50, q.P90, q.P99, q.Count)
		}
		seen[q.Tags["route"]+q.Tags["cmd"]] = true
	}
	for _, key := range []string{ndt7.DownloadPath, "/speedtest/download", "PING"} {
		if !seen[key] {
			t.Errorf("no serving-path histogram activity for %s (http %v, ookla %v)", key, res.HTTP, res.Ookla)
		}
	}
}
