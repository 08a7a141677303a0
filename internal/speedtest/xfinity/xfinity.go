// Package xfinity implements a Comcast Xfinity-style HTTP speed test:
// latency via small GETs, download via ranged GETs of sized objects, and
// upload via POSTs, run over several parallel HTTP connections the way the
// web client does.
package xfinity

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/clasp-measurement/clasp/internal/speedtest"
)

// Endpoint paths.
const (
	LatencyPath  = "/speedtest/latency"
	DownloadPath = "/speedtest/download" // ?size=N
	UploadPath   = "/speedtest/upload"
)

// MaxObject bounds one downloadable object (256 MiB).
const MaxObject = 256 << 20

// Handler serves the three endpoints.
type Handler struct{}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case LatencyPath:
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "pong")
	case DownloadPath:
		size, err := strconv.ParseInt(r.URL.Query().Get("size"), 10, 64)
		if err != nil || size <= 0 || size > MaxObject {
			http.Error(w, "bad size", http.StatusBadRequest)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		chunk := make([]byte, 64<<10)
		for size > 0 {
			n := int64(len(chunk))
			if n > size {
				n = size
			}
			if _, err := w.Write(chunk[:n]); err != nil {
				return
			}
			size -= n
		}
	case UploadPath:
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		n, err := io.Copy(io.Discard, r.Body)
		if err != nil {
			http.Error(w, "read error", http.StatusBadRequest)
			return
		}
		fmt.Fprintf(w, "%d\n", n)
	default:
		http.NotFound(w, r)
	}
}

// Config tunes the client.
type Config struct {
	// Connections is the number of parallel HTTP streams (default 4).
	Connections int
	// Duration bounds each direction (default 10 s).
	Duration time.Duration
	// ObjectBytes is the per-request object size (default 8 MiB).
	ObjectBytes int64
	// PingCount is the number of latency probes (default 5).
	PingCount int
}

func (c Config) withDefaults() Config {
	if c.Connections <= 0 {
		c.Connections = 4
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.ObjectBytes <= 0 {
		c.ObjectBytes = 8 << 20
	}
	if c.PingCount <= 0 {
		c.PingCount = 5
	}
	return c
}

// Client runs Xfinity-style tests.
type Client struct {
	cfg  Config
	http *http.Client
}

// NewClient creates a client.
func NewClient(cfg Config) *Client {
	cfg = cfg.withDefaults()
	return &Client{cfg: cfg, http: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: cfg.Connections * 2,
	}}}
}

// Platform implements speedtest.Client.
func (c *Client) Platform() string { return "comcast" }

// Run implements speedtest.Client.
func (c *Client) Run(ctx context.Context, addr string) (speedtest.Result, error) {
	base := "http://" + addr
	res := speedtest.Result{Platform: c.Platform(), Server: addr, Start: time.Now()}

	// Latency: minimum of PingCount small GETs.
	best := -1.0
	for i := 0; i < c.cfg.PingCount; i++ {
		start := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+LatencyPath, nil)
		if err != nil {
			return res, fmt.Errorf("xfinity: %w", err)
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return res, fmt.Errorf("xfinity: latency probe: %w", err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		rtt := time.Since(start).Seconds() * 1000
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	res.LatencyMs = best

	// Download: parallel workers fetching sized objects.
	down, err := c.transferPhase(ctx, func(workerCtx context.Context) (int64, error) {
		url := fmt.Sprintf("%s%s?size=%d", base, DownloadPath, c.cfg.ObjectBytes)
		req, err := http.NewRequestWithContext(workerCtx, http.MethodGet, url, nil)
		if err != nil {
			return 0, err
		}
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %s", resp.Status)
		}
		return io.Copy(io.Discard, resp.Body)
	})
	if err != nil {
		return res, fmt.Errorf("xfinity: download: %w", err)
	}
	res.BytesDown = down.bytes
	res.DownloadMbps = speedtest.Mbps(down.bytes, down.elapsed)

	// Upload: parallel POSTs.
	up, err := c.transferPhase(ctx, func(workerCtx context.Context) (int64, error) {
		body := io.LimitReader(zeroReader{}, c.cfg.ObjectBytes)
		req, err := http.NewRequestWithContext(workerCtx, http.MethodPost, base+UploadPath, body)
		if err != nil {
			return 0, err
		}
		req.ContentLength = c.cfg.ObjectBytes
		resp, err := c.http.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("status %s", resp.Status)
		}
		return c.cfg.ObjectBytes, nil
	})
	if err != nil {
		return res, fmt.Errorf("xfinity: upload: %w", err)
	}
	res.BytesUp = up.bytes
	res.UploadMbps = speedtest.Mbps(up.bytes, up.elapsed)
	res.Duration = time.Since(res.Start).Seconds()
	return res, nil
}

type phaseResult struct {
	bytes   int64
	elapsed time.Duration
}

// transferPhase runs `one` repeatedly on Connections workers for Duration.
// Context cancellation at the phase deadline is expected and not an error;
// other failures abort the phase.
func (c *Client) transferPhase(ctx context.Context, one func(context.Context) (int64, error)) (phaseResult, error) {
	phaseCtx, cancel := context.WithTimeout(ctx, c.cfg.Duration)
	defer cancel()
	var total atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, c.cfg.Connections)
	start := time.Now()
	for w := 0; w < c.cfg.Connections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for phaseCtx.Err() == nil {
				n, err := one(phaseCtx)
				total.Add(n)
				if err != nil {
					if phaseCtx.Err() != nil {
						return // deadline reached mid-transfer
					}
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return phaseResult{}, err
	default:
	}
	if err := ctx.Err(); err != nil {
		return phaseResult{}, err
	}
	return phaseResult{bytes: total.Load(), elapsed: elapsed}, nil
}

// zeroReader yields zero bytes forever.
type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 0
	}
	return len(p), nil
}
