package ookla

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/shaper"
)

func startServer(t *testing.T) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func quickCfg() Config {
	return Config{
		PingCount:        3,
		DownloadDuration: 300 * time.Millisecond,
		UploadDuration:   300 * time.Millisecond,
		BlockBytes:       256 << 10,
	}
}

func TestFullTestLoopback(t *testing.T) {
	s := startServer(t)
	c := NewClient(quickCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx, s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadMbps <= 0 || res.UploadMbps <= 0 {
		t.Errorf("throughput not measured: %+v", res)
	}
	if res.LatencyMs <= 0 || res.LatencyMs > 100 {
		t.Errorf("loopback latency = %v ms", res.LatencyMs)
	}
	if res.BytesDown < int64(quickCfg().BlockBytes) || res.BytesUp < int64(quickCfg().BlockBytes) {
		t.Errorf("byte counts too small: %+v", res)
	}
	if res.Platform != "ookla" {
		t.Errorf("platform = %q", res.Platform)
	}
}

func TestShapedUploadRespectsCap(t *testing.T) {
	// Shape the client's writes at 80 Mbps — the tc substitute — and
	// check the measured upload honours the cap.
	s := startServer(t)
	cfg := quickCfg()
	cfg.UploadDuration = 800 * time.Millisecond
	c := NewClient(cfg)
	c.Dial = func(ctx context.Context, addr string) (net.Conn, error) {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return shaper.NewConn(raw, shaper.Options{WriteMbps: 80}), nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	res, err := c.Run(ctx, s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if res.UploadMbps > 110 {
		t.Errorf("shaped upload measured %.0f Mbps, cap 80", res.UploadMbps)
	}
}

func TestProtocolConversation(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(line string) {
		if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
			t.Fatal(err)
		}
	}
	expectPrefix := func(prefix string) string {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("reading reply to %q: %v", prefix, err)
		}
		if !strings.HasPrefix(line, prefix) {
			t.Fatalf("reply %q, want prefix %q", strings.TrimSpace(line), prefix)
		}
		return line
	}
	send("HI")
	expectPrefix("HELLO")
	send("PING 12345")
	expectPrefix("PONG")
	send("DOWNLOAD 1000")
	// Exactly 1000 bytes including trailing newline.
	got := make([]byte, 1000)
	for read := 0; read < 1000; {
		n, err := br.Read(got[read:])
		if err != nil {
			t.Fatal(err)
		}
		read += n
	}
	if !strings.HasPrefix(string(got), "DOWNLOAD ") || got[999] != '\n' {
		t.Errorf("download block malformed: %q...", got[:20])
	}
	send("UPLOAD 10 0")
	conn.Write([]byte("0123456789"))
	expectPrefix("OK 10")
	send("BOGUS")
	expectPrefix("ERROR")
	send("DOWNLOAD notanumber")
	expectPrefix("ERROR")
	send("DOWNLOAD -5")
	expectPrefix("ERROR")
	send("QUIT")
}

func TestDownloadMinimumSize(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "DOWNLOAD 1\n")
	line, err := br.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, "DOWNLOAD ") {
		t.Errorf("tiny download reply %q", line)
	}
}

func TestClientErrorOnRefusedConnection(t *testing.T) {
	c := NewClient(quickCfg())
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := c.Run(ctx, "127.0.0.1:1"); err == nil {
		t.Error("connection to closed port succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	s := startServer(t)
	cfg := quickCfg()
	cfg.DownloadDuration = 10 * time.Second
	c := NewClient(cfg)
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.Run(ctx, s.Addr().String())
	if err == nil {
		t.Error("cancelled run succeeded")
	}
	if time.Since(start) > 5*time.Second {
		t.Error("cancellation not honoured promptly")
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	s := startServer(t)
	addr := s.Addr().String()
	s.Close()
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Error("closed server still accepting")
	}
}

// TestCloseWhileHandlersActive closes the server while clients are mid
// conversation. Close must wait for the in-flight handlers, must not race
// with them (-race), and must return once the clients hang up.
func TestCloseWhileHandlersActive(t *testing.T) {
	s := startServer(t)
	addr := s.Addr().String()
	const clients = 4
	started := make(chan struct{}, clients)
	done := make(chan struct{})
	for i := 0; i < clients; i++ {
		go func() {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				started <- struct{}{}
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			fmt.Fprintf(conn, "HI\n")
			br.ReadString('\n')
			started <- struct{}{}
			// Keep the handler busy while Close runs; errors are expected
			// once the server tears the connection down.
			for j := 0; j < 20; j++ {
				if _, err := fmt.Fprintf(conn, "PING %d\n", j); err != nil {
					return
				}
				if _, err := br.ReadString('\n'); err != nil {
					return
				}
			}
			fmt.Fprintf(conn, "QUIT\n")
		}()
	}
	for i := 0; i < clients; i++ {
		<-started
	}
	go func() {
		s.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while handlers were active")
	}
	if _, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		t.Error("server still accepting after Close")
	}
}

func TestServerConcurrentClients(t *testing.T) {
	s := startServer(t)
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			c := NewClient(quickCfg())
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			_, err := c.Run(ctx, s.Addr().String())
			errs <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-errs; err != nil {
			t.Errorf("concurrent client: %v", err)
		}
	}
}

// TestShutdownWaitsForInFlight pins the graceful-drain contract: Shutdown
// stops accepting immediately but lets an in-flight test finish on its own
// before returning nil.
func TestShutdownWaitsForInFlight(t *testing.T) {
	s := startServer(t)
	addr := s.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "HI\n")
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()

	// Shutdown must not return while the test is still running.
	select {
	case err := <-done:
		t.Fatalf("Shutdown returned %v while a connection was active", err)
	case <-time.After(100 * time.Millisecond):
	}
	// New connections are refused during the drain.
	if c2, err := net.DialTimeout("tcp", addr, 500*time.Millisecond); err == nil {
		c2.Close()
		t.Error("draining server accepted a new connection")
	}
	// The in-flight conversation still works end to end.
	fmt.Fprintf(conn, "DOWNLOAD 1000\n")
	buf := make([]byte, 1000)
	if _, err := io.ReadFull(br, buf); err != nil {
		t.Fatalf("in-flight download failed during drain: %v", err)
	}
	fmt.Fprintf(conn, "QUIT\n")
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("Shutdown = %v after client finished, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Shutdown did not return after the client quit")
	}
}

// TestShutdownDeadlineSeversConnections pins the other half of the
// contract: when the context expires before clients finish, Shutdown severs
// the stragglers, returns the context error, and still waits for handlers
// to exit.
func TestShutdownDeadlineSeversConnections(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	fmt.Fprintf(conn, "HI\n")
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = s.Shutdown(ctx) // the idle client never quits
	if err != context.DeadlineExceeded {
		t.Errorf("Shutdown = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("Shutdown did not honour its deadline promptly")
	}
	// The straggler was severed: its next read fails once the buffer drains.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := br.ReadString('\n'); err == nil {
		t.Error("severed connection still readable")
	}
}

// TestServerClosesOnOverlongLine: a client that streams a command with no
// newline gets the connection closed once the line outgrows the server's
// 64 KiB reader, instead of growing the server's heap until the 60 s read
// deadline.
func TestServerClosesOnOverlongLine(t *testing.T) {
	s := startServer(t)
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	go func() {
		// The server may reset the connection mid-write; only the read
		// side is under test.
		_, _ = conn.Write([]byte(strings.Repeat("A", 1<<20)))
	}()
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = io.Copy(io.Discard, conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("connection still open 5 s into a 1 MiB line with no newline")
	}
}

// TestClientRefusesOverlongLine: a server that answers HI with 1 MiB and no
// newline fails the client's handshake once the line outgrows its 256 KiB
// reader, rather than being buffered whole.
func TestClientRefusesOverlongLine(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		// Take the HI first: closing on unread bytes would reset the
		// connection under the client's read.
		if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
			return
		}
		_, _ = conn.Write([]byte(strings.Repeat("H", 1<<20)))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = NewClient(quickCfg()).Run(ctx, ln.Addr().String())
	if err == nil || !strings.Contains(err.Error(), "line too long") {
		msg := fmt.Sprint(err)
		if len(msg) > 200 {
			msg = msg[:200] + "..."
		}
		t.Fatalf("Run = %s, want a line-too-long handshake error", msg)
	}
}

// halfClosedConn is the server's end of a connection whose client sent its
// bytes and then closed its write side: reads drain them and then see EOF,
// so they never block and need no deadline, and writes go to the other end
// of a net.Pipe.
type halfClosedConn struct {
	net.Conn
	in *bytes.Reader
}

func (c halfClosedConn) Read(p []byte) (int, error)      { return c.in.Read(p) }
func (c halfClosedConn) SetReadDeadline(time.Time) error { return nil }

// FuzzServeConn feeds arbitrary client bytes to the server's line protocol,
// with every reply drained: serving never panics, and allocates the
// reader's and writer's buffers plus a bounded amount per line — the line,
// its fields and at most one formatted reply — so in proportion to the
// input, whatever a size claims.
func FuzzServeConn(f *testing.F) {
	for _, seed := range []string{
		"HI\n",
		"PING 12\n",
		"DOWNLOAD 100000\n",
		"UPLOAD 64 0\n" + strings.Repeat("x", 64),
		"QUIT\n",
		"HI\nPING 1\nDOWNLOAD 20\nUPLOAD 5 0\nabcdeQUIT\n",
		strings.Repeat("A", 64<<10+1) + "\n",
	} {
		f.Add([]byte(seed))
	}
	const slack = 256 << 10 // the reader's and writer's 64 KiB buffers, with room
	f.Fuzz(func(t *testing.T, raw []byte) {
		client, server := net.Pipe()
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			_, _ = io.Copy(io.Discard, client)
		}()
		before := totalAlloc()
		(&Server{}).handle(halfClosedConn{Conn: server, in: bytes.NewReader(raw)})
		got := totalAlloc() - before
		server.Close()
		<-drained
		if limit := 64*uint64(len(raw)) + slack; got > limit {
			t.Fatalf("%d input bytes allocated %d bytes (limit %d)", len(raw), got, limit)
		}
	})
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
