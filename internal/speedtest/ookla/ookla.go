// Package ookla implements the Ookla legacy TCP speed test protocol
// (the line-oriented HI/PING/DOWNLOAD/UPLOAD dialect spoken by
// speedtest-mini and classic server daemons) — both the server and a
// measuring client.
//
// Protocol summary (client -> server lines, '\n'-terminated):
//
//	HI                     -> HELLO 2.9 (clasp)
//	PING <ms>              -> PONG <server ms>
//	DOWNLOAD <n>           -> "DOWNLOAD " + filler, n bytes total + '\n'
//	UPLOAD <n> 0 ; <data>  -> OK <n> <elapsed-ms>
//	QUIT                   -> connection closes
package ookla

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/obs"
	"github.com/clasp-measurement/clasp/internal/speedtest"
)

// MaxBlock bounds a single DOWNLOAD/UPLOAD request (64 MiB).
const MaxBlock = 64 << 20

// obsCmdDur times the server side of each protocol command, by verb. The
// verb set is fixed (unknown verbs collapse to "other") so label
// cardinality stays bounded under hostile input; updates no-op while the
// obs registry is disabled.
var obsCmdDur = func() map[string]*obs.Histogram {
	m := make(map[string]*obs.Histogram, 6)
	for _, c := range []string{"HI", "PING", "DOWNLOAD", "UPLOAD", "QUIT", "other"} {
		m[c] = obs.Default().Histogram("ookla_command_duration_ns", "cmd", c)
	}
	return m
}()

// observeCmd records one completed command's server-side duration.
func observeCmd(cmd string, start time.Time) {
	if start.IsZero() {
		return
	}
	h := obsCmdDur[cmd]
	if h == nil {
		h = obsCmdDur["other"]
	}
	h.Observe(float64(time.Since(start)))
}

// Server is an Ookla-protocol speed test server.
type Server struct {
	ln        net.Listener
	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve starts accepting connections on ln; it owns the listener.
func Serve(ln net.Listener) *Server {
	s := &Server{ln: ln, closed: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen starts a server on addr ("127.0.0.1:0" for tests).
func Listen(addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("ookla: listen: %w", err)
	}
	return Serve(ln), nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops the server immediately: it stops accepting, severs every
// active connection, and waits for handlers to finish. In-flight tests are
// dropped — use Shutdown for a graceful drain. Safe to call multiple times.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		s.closeActiveConns()
		s.wg.Wait()
	})
	return err
}

// Shutdown gracefully stops the server: it stops accepting new connections
// and waits for active tests to finish on their own. If ctx expires first,
// the remaining connections are severed (mid-transfer clients see a read
// error, exactly like a network drop) and ctx.Err() is returned. Like
// http.Server.Shutdown, it is safe to call concurrently with Close and
// returns nil once every handler has exited.
func (s *Server) Shutdown(ctx context.Context) error {
	s.closeOnce.Do(func() {
		close(s.closed)
		_ = s.ln.Close()
	})
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.closeActiveConns()
		<-done
		return ctx.Err()
	}
}

// closeActiveConns severs every tracked connection, unblocking its handler.
func (s *Server) closeActiveConns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for c := range s.conns {
		_ = c.Close()
	}
}

// track registers (add) or forgets (remove) an active connection; it reports
// whether the server is still open. A false return means the server stopped
// accepting between Accept and track, and the caller must drop the conn.
func (s *Server) track(conn net.Conn, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		select {
		case <-s.closed:
			return false
		default:
		}
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
	return true
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
				return
			}
		}
		if !s.track(conn, true) {
			conn.Close()
			return
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.handle(conn)
		}()
	}
}

// filler is the repeated payload pattern for DOWNLOAD responses.
var filler = func() []byte {
	b := make([]byte, 8192)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
	for i := range b {
		b[i] = alphabet[i%len(alphabet)]
	}
	return b
}()

func (s *Server) handle(conn net.Conn) {
	br := bufio.NewReaderSize(conn, 64<<10)
	bw := bufio.NewWriterSize(conn, 64<<10)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(60 * time.Second))
		line, err := readLine(br)
		if errors.Is(err, errLineTooLong) {
			fmt.Fprintf(bw, "ERROR line too long\n")
			bw.Flush()
			return
		}
		if err != nil {
			return
		}
		line = strings.TrimSpace(line)
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		cmd := strings.ToUpper(fields[0])
		// Only completed commands are timed: a handler that returns mid-
		// command (client gone, QUIT) records nothing, so the histograms
		// describe successful serving-path work.
		var cmdStart time.Time
		if obs.Enabled() {
			cmdStart = time.Now()
		}
		switch cmd {
		case "HI":
			fmt.Fprintf(bw, "HELLO 2.9 (clasp)\n")
		case "PING":
			fmt.Fprintf(bw, "PONG %d\n", time.Now().UnixMilli())
		case "DOWNLOAD":
			n, err := parseSize(fields, 1)
			if err != nil {
				fmt.Fprintf(bw, "ERROR %v\n", err)
				bw.Flush()
				continue
			}
			if err := writeDownload(bw, n); err != nil {
				return
			}
		case "UPLOAD":
			n, err := parseSize(fields, 1)
			if err != nil {
				fmt.Fprintf(bw, "ERROR %v\n", err)
				bw.Flush()
				continue
			}
			start := time.Now()
			// The first line (already consumed) counts toward n in the
			// real protocol; we count the remaining payload only, which
			// the client sizes accordingly.
			if _, err := io.CopyN(io.Discard, br, int64(n)); err != nil {
				return
			}
			fmt.Fprintf(bw, "OK %d %d\n", n, time.Since(start).Milliseconds())
		case "QUIT":
			bw.Flush()
			return
		default:
			fmt.Fprintf(bw, "ERROR unknown command\n")
		}
		observeCmd(cmd, cmdStart)
		if err := bw.Flush(); err != nil {
			return
		}
	}
}

// errLineTooLong is a protocol line that does not fit the reader's buffer.
var errLineTooLong = errors.New("line too long")

// readLine reads one '\n'-terminated protocol line. A line longer than br's
// buffer is refused with errLineTooLong, so a peer that streams bytes with
// no newline costs one buffer rather than an ever-growing string.
func readLine(br *bufio.Reader) (string, error) {
	line, err := br.ReadSlice('\n')
	if errors.Is(err, bufio.ErrBufferFull) {
		return "", errLineTooLong
	}
	return string(line), err
}

func parseSize(fields []string, idx int) (int, error) {
	if len(fields) <= idx {
		return 0, errors.New("missing size")
	}
	n, err := strconv.Atoi(fields[idx])
	if err != nil || n <= 0 || n > MaxBlock {
		return 0, fmt.Errorf("bad size %q", fields[idx])
	}
	return n, nil
}

// writeDownload emits "DOWNLOAD " + filler so the full line is n bytes
// including the trailing newline.
func writeDownload(bw *bufio.Writer, n int) error {
	const prefix = "DOWNLOAD "
	if n < len(prefix)+1 {
		n = len(prefix) + 1
	}
	if _, err := bw.WriteString(prefix); err != nil {
		return err
	}
	remaining := n - len(prefix) - 1
	for remaining > 0 {
		chunk := remaining
		if chunk > len(filler) {
			chunk = len(filler)
		}
		if _, err := bw.Write(filler[:chunk]); err != nil {
			return err
		}
		remaining -= chunk
	}
	return bw.WriteByte('\n')
}

// Config tunes the client.
type Config struct {
	// PingCount is the number of PING exchanges (default 5; the minimum
	// is reported as the latency, like the Ookla client).
	PingCount int
	// DownloadDuration / UploadDuration bound each phase (default 10 s;
	// tests use shorter values).
	DownloadDuration time.Duration
	UploadDuration   time.Duration
	// BlockBytes is the per-request transfer size (default 1 MiB).
	BlockBytes int
}

func (c Config) withDefaults() Config {
	if c.PingCount <= 0 {
		c.PingCount = 5
	}
	if c.DownloadDuration <= 0 {
		c.DownloadDuration = 10 * time.Second
	}
	if c.UploadDuration <= 0 {
		c.UploadDuration = 10 * time.Second
	}
	if c.BlockBytes <= 0 {
		c.BlockBytes = 1 << 20
	}
	return c
}

// dialTimeout bounds connection establishment.
const dialTimeout = 10 * time.Second

// Client measures against an Ookla-protocol server.
type Client struct {
	cfg Config
	// Dial allows tests to substitute shaped transports; nil uses TCP.
	Dial func(ctx context.Context, addr string) (net.Conn, error)
}

// NewClient creates a client with the given configuration.
func NewClient(cfg Config) *Client { return &Client{cfg: cfg.withDefaults()} }

// Platform implements speedtest.Client.
func (c *Client) Platform() string { return "ookla" }

func (c *Client) dial(ctx context.Context, addr string) (net.Conn, error) {
	if c.Dial != nil {
		return c.Dial(ctx, addr)
	}
	d := net.Dialer{Timeout: dialTimeout}
	return d.DialContext(ctx, "tcp", addr)
}

// Run implements speedtest.Client.
func (c *Client) Run(ctx context.Context, addr string) (speedtest.Result, error) {
	res := speedtest.Result{Platform: c.Platform(), Server: addr, Start: time.Now()}
	conn, err := c.dial(ctx, addr)
	if err != nil {
		return res, fmt.Errorf("ookla: %w", err)
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	}
	br := bufio.NewReaderSize(conn, 256<<10)

	// Handshake.
	if _, err := io.WriteString(conn, "HI\n"); err != nil {
		return res, fmt.Errorf("ookla: handshake: %w", err)
	}
	hello, err := readLine(br)
	if err != nil || !strings.HasPrefix(hello, "HELLO") {
		return res, fmt.Errorf("ookla: bad HELLO %q: %v", strings.TrimSpace(hello), err)
	}

	// Latency: minimum of PingCount RTTs.
	best := -1.0
	for i := 0; i < c.cfg.PingCount; i++ {
		start := time.Now()
		if _, err := fmt.Fprintf(conn, "PING %d\n", start.UnixMilli()); err != nil {
			return res, fmt.Errorf("ookla: ping: %w", err)
		}
		line, err := readLine(br)
		if err != nil || !strings.HasPrefix(line, "PONG") {
			return res, fmt.Errorf("ookla: bad PONG %q: %v", strings.TrimSpace(line), err)
		}
		rtt := time.Since(start).Seconds() * 1000
		if best < 0 || rtt < best {
			best = rtt
		}
	}
	res.LatencyMs = best

	// Download phase: request blocks until the duration budget is used.
	dlStart := time.Now()
	var dlBytes int64
	buf := make([]byte, 64<<10)
	for time.Since(dlStart) < c.cfg.DownloadDuration {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if _, err := fmt.Fprintf(conn, "DOWNLOAD %d\n", c.cfg.BlockBytes); err != nil {
			return res, fmt.Errorf("ookla: download request: %w", err)
		}
		remaining := c.cfg.BlockBytes
		for remaining > 0 {
			chunk := remaining
			if chunk > len(buf) {
				chunk = len(buf)
			}
			n, err := io.ReadFull(br, buf[:chunk])
			dlBytes += int64(n)
			if err != nil {
				return res, fmt.Errorf("ookla: download read: %w", err)
			}
			remaining -= n
		}
	}
	res.BytesDown = dlBytes
	res.DownloadMbps = speedtest.Mbps(dlBytes, time.Since(dlStart))

	// Upload phase.
	ulStart := time.Now()
	var ulBytes int64
	block := make([]byte, c.cfg.BlockBytes)
	for i := range block {
		block[i] = filler[i%len(filler)]
	}
	for time.Since(ulStart) < c.cfg.UploadDuration {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		if _, err := fmt.Fprintf(conn, "UPLOAD %d 0\n", len(block)); err != nil {
			return res, fmt.Errorf("ookla: upload request: %w", err)
		}
		if _, err := conn.Write(block); err != nil {
			return res, fmt.Errorf("ookla: upload write: %w", err)
		}
		line, err := readLine(br)
		if err != nil || !strings.HasPrefix(line, "OK") {
			return res, fmt.Errorf("ookla: bad upload ack %q: %v", strings.TrimSpace(line), err)
		}
		ulBytes += int64(len(block))
	}
	res.BytesUp = ulBytes
	res.UploadMbps = speedtest.Mbps(ulBytes, time.Since(ulStart))

	_, _ = io.WriteString(conn, "QUIT\n")
	res.Duration = time.Since(res.Start).Seconds()
	return res, nil
}
