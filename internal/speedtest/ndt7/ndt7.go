// Package ndt7 implements M-Lab's ndt7 speed test protocol: WebSocket
// transfers on /ndt/v7/download and /ndt/v7/upload with the
// "net.measurementlab.ndt.v7" subprotocol and periodic JSON measurement
// messages, per the ndt7 protocol specification.
package ndt7

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/clasp-measurement/clasp/internal/speedtest"
	"github.com/clasp-measurement/clasp/internal/wsock"
)

// Protocol constants.
const (
	// DownloadPath and UploadPath are the ndt7 endpoints.
	DownloadPath = "/ndt/v7/download"
	UploadPath   = "/ndt/v7/upload"
	// minMessageSize is the initial binary message size; the sender
	// doubles it as the transfer speeds up, capped at maxMessageSize.
	minMessageSize = 1 << 13
	maxMessageSize = 1 << 20
	// measureInterval is how often measurement JSON is emitted.
	measureInterval = 250 * time.Millisecond
)

// Measurement is the ndt7 measurement message (subset of the spec).
type Measurement struct {
	AppInfo *AppInfo `json:"AppInfo,omitempty"`
	Origin  string   `json:"Origin,omitempty"` // "client" or "server"
	Test    string   `json:"Test,omitempty"`   // "download" or "upload"
}

// AppInfo carries application-level transfer progress.
type AppInfo struct {
	ElapsedTime int64 `json:"ElapsedTime"` // microseconds
	NumBytes    int64 `json:"NumBytes"`
}

// Handler serves the two ndt7 endpoints.
type Handler struct {
	// Duration bounds each test (default 10 s; tests shorten it).
	Duration time.Duration
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case DownloadPath:
		h.download(w, r)
	case UploadPath:
		h.upload(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (h *Handler) duration() time.Duration {
	if h.Duration > 0 {
		return h.Duration
	}
	return 10 * time.Second
}

func (h *Handler) download(w http.ResponseWriter, r *http.Request) {
	c, err := wsock.Upgrade(w, r)
	if err != nil {
		return
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(h.duration() + 15*time.Second)); err != nil {
		return
	}

	start := time.Now()
	var sent int64
	size := minMessageSize
	buf := make([]byte, maxMessageSize)
	nextMeasure := start.Add(measureInterval)
	for time.Since(start) < h.duration() {
		if err := c.WriteMessage(wsock.OpBinary, buf[:size]); err != nil {
			return
		}
		sent += int64(size)
		// Scale the message size as the transfer proceeds (ndt7 rule:
		// grow while the message is under 1/16 of bytes sent).
		if size < maxMessageSize && int64(size) < sent/16 {
			size *= 2
		}
		if now := time.Now(); now.After(nextMeasure) {
			m := Measurement{
				Origin: "server",
				Test:   "download",
				AppInfo: &AppInfo{
					ElapsedTime: time.Since(start).Microseconds(),
					NumBytes:    sent,
				},
			}
			data, err := json.Marshal(m)
			if err != nil {
				return
			}
			if err := c.WriteMessage(wsock.OpText, data); err != nil {
				return
			}
			nextMeasure = now.Add(measureInterval)
		}
	}
}

func (h *Handler) upload(w http.ResponseWriter, r *http.Request) {
	c, err := wsock.Upgrade(w, r)
	if err != nil {
		return
	}
	defer c.Close()
	if err := c.SetDeadline(time.Now().Add(h.duration() + 15*time.Second)); err != nil {
		return
	}

	start := time.Now()
	var received int64
	nextMeasure := start.Add(measureInterval)
	for {
		op, msg, err := c.ReadMessage()
		if err != nil {
			return
		}
		if op == wsock.OpBinary {
			received += int64(len(msg))
		}
		if now := time.Now(); now.After(nextMeasure) {
			m := Measurement{
				Origin: "server",
				Test:   "upload",
				AppInfo: &AppInfo{
					ElapsedTime: time.Since(start).Microseconds(),
					NumBytes:    received,
				},
			}
			data, err := json.Marshal(m)
			if err != nil {
				return
			}
			if err := c.WriteMessage(wsock.OpText, data); err != nil {
				return
			}
			nextMeasure = now.Add(measureInterval)
		}
	}
}

// Config tunes the client.
type Config struct {
	// Duration bounds each direction (default 10 s).
	Duration time.Duration
	// Dial substitutes the transport (e.g. a shaped connection); nil
	// uses plain TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

func (c Config) withDefaults() Config {
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	return c
}

// dialTimeout bounds connection establishment.
const dialTimeout = 10 * time.Second

// Client runs ndt7 tests.
type Client struct {
	cfg Config
}

// NewClient creates an ndt7 client.
func NewClient(cfg Config) *Client { return &Client{cfg: cfg.withDefaults()} }

// Platform implements speedtest.Client.
func (c *Client) Platform() string { return "mlab" }

func (c *Client) connect(ctx context.Context, addr, path string) (*wsock.Conn, time.Duration, error) {
	start := time.Now()
	var raw net.Conn
	var err error
	if c.cfg.Dial != nil {
		raw, err = c.cfg.Dial(ctx, addr)
	} else {
		d := net.Dialer{Timeout: dialTimeout}
		raw, err = d.DialContext(ctx, "tcp", addr)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("ndt7: dial: %w", err)
	}
	conn, err := wsock.ClientHandshake(raw, addr, path)
	if err != nil {
		raw.Close()
		return nil, 0, fmt.Errorf("ndt7: handshake: %w", err)
	}
	return conn, time.Since(start), nil
}

// Download runs the download direction, returning Mbps, bytes and the
// connection setup RTT.
func (c *Client) Download(ctx context.Context, addr string) (mbps float64, bytes int64, rtt time.Duration, err error) {
	conn, rtt, err := c.connect(ctx, addr, DownloadPath)
	if err != nil {
		return 0, 0, 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(c.cfg.Duration + 15*time.Second)); err != nil {
		return 0, 0, rtt, fmt.Errorf("ndt7: download: %w", err)
	}
	start := time.Now()
	for time.Since(start) < c.cfg.Duration {
		if err := ctx.Err(); err != nil {
			return 0, bytes, rtt, err
		}
		op, msg, err := conn.ReadMessage()
		if errors.Is(err, wsock.ErrClosed) {
			break
		}
		if err != nil {
			// The server stops sending at its duration; a clean EOF
			// after data is fine.
			if bytes > 0 {
				break
			}
			return 0, 0, rtt, fmt.Errorf("ndt7: download: %w", err)
		}
		if op == wsock.OpBinary {
			bytes += int64(len(msg))
		}
	}
	elapsed := time.Since(start)
	return speedtest.Mbps(bytes, elapsed), bytes, rtt, nil
}

// Upload runs the upload direction.
func (c *Client) Upload(ctx context.Context, addr string) (mbps float64, bytes int64, err error) {
	conn, _, err := c.connect(ctx, addr, UploadPath)
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(c.cfg.Duration + 15*time.Second)); err != nil {
		return 0, 0, fmt.Errorf("ndt7: upload: %w", err)
	}
	start := time.Now()
	size := minMessageSize
	buf := make([]byte, maxMessageSize)
	for time.Since(start) < c.cfg.Duration {
		if err := ctx.Err(); err != nil {
			return 0, bytes, err
		}
		if err := conn.WriteMessage(wsock.OpBinary, buf[:size]); err != nil {
			return 0, bytes, fmt.Errorf("ndt7: upload: %w", err)
		}
		bytes += int64(size)
		if size < maxMessageSize && int64(size) < bytes/16 {
			size *= 2
		}
	}
	elapsed := time.Since(start)
	return speedtest.Mbps(bytes, elapsed), bytes, nil
}

// Run implements speedtest.Client: download then upload.
func (c *Client) Run(ctx context.Context, addr string) (speedtest.Result, error) {
	res := speedtest.Result{Platform: c.Platform(), Server: addr, Start: time.Now()}
	down, bytesDown, rtt, err := c.Download(ctx, addr)
	if err != nil {
		return res, err
	}
	res.DownloadMbps = down
	res.BytesDown = bytesDown
	res.LatencyMs = float64(rtt.Microseconds()) / 1000
	up, bytesUp, err := c.Upload(ctx, addr)
	if err != nil {
		return res, err
	}
	res.UploadMbps = up
	res.BytesUp = bytesUp
	res.Duration = time.Since(res.Start).Seconds()
	return res, nil
}
