// Command speedtestd serves all three speed test protocols on localhost:
// the Ookla TCP line protocol, M-Lab's ndt7 over WebSocket, and a Comcast
// Xfinity-style HTTP test, plus a server directory endpoint — a miniature
// of the infrastructure CLASP measures against.
//
// Usage:
//
//	speedtestd [-ookla :8080] [-http :8081] [-duration 10s]
//
// The HTTP listener serves ndt7 (/ndt/v7/download, /ndt/v7/upload), the
// Xfinity endpoints (/speedtest/*), and /servers.json. Live telemetry is
// exposed on the same listener: GET /metrics serves the obs registry in
// Prometheus text format, /debug/vars serves expvar JSON (full registry
// snapshot under "clasp_obs"), and /debug/pprof/* serves the standard
// profiling endpoints. Every request is timed into the
// speedtestd_http_request_duration_ns{route,status} histogram family; two
// reads of /debug/vars give the exact window between them (loadgen).
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"github.com/clasp-measurement/clasp/internal/daemon"
)

// shutdownTimeout bounds the graceful drain after SIGINT/SIGTERM: ongoing
// speed tests may finish within it, then remaining connections are closed.
const shutdownTimeout = 15 * time.Second

func main() {
	ooklaAddr := flag.String("ookla", "127.0.0.1:8080", "Ookla protocol listen address")
	httpAddr := flag.String("http", "127.0.0.1:8081", "HTTP listen address (ndt7 + xfinity + directory)")
	duration := flag.Duration("duration", 10*time.Second, "ndt7 test duration")
	flag.Parse()

	d, err := daemon.Start(daemon.Config{
		OoklaAddr:    *ooklaAddr,
		HTTPAddr:     *httpAddr,
		NDT7Duration: *duration,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("speedtestd: %v", err)
	}

	// Serve until interrupted, then drain: in-flight tests get up to
	// shutdownTimeout to finish before the listeners are torn down.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-d.Err():
		log.Fatalf("speedtestd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("shutting down (waiting up to %s for in-flight tests)", shutdownTimeout)
	sctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := d.Shutdown(sctx); err != nil {
		log.Printf("speedtestd: shutdown: %v", err)
	}
}
