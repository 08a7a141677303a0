package wsock

import (
	"bufio"
	"bytes"
	"errors"
	"net"
	"runtime"
	"testing"
)

// bytesConn is a net.Conn that reads a fixed byte stream and discards
// writes: a peer whose every byte the test chose.
type bytesConn struct {
	net.Conn // nil: only Read, Write and Close are called
	r        *bytes.Reader
}

func (c *bytesConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *bytesConn) Write(p []byte) (int, error) { return len(p), nil }
func (c *bytesConn) Close() error                { return nil }

// serverConn is the server end of a connection whose peer sends raw.
func serverConn(raw []byte) *Conn {
	nc := &bytesConn{r: bytes.NewReader(raw)}
	return &Conn{conn: nc, br: bufio.NewReader(nc)}
}

// totalAlloc is the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// readAll reads messages until the first error and returns that error.
func readAll(c *Conn) error {
	for {
		if _, _, err := c.ReadMessage(); err != nil {
			return err
		}
	}
}

// TestClaimedLengthDoesNotSizeAllocation: a header that claims a 16 MiB
// binary frame and then ends costs what arrived, not what it claimed.
func TestClaimedLengthDoesNotSizeAllocation(t *testing.T) {
	c := serverConn([]byte{0x82, 127, 0, 0, 0, 0, 0x01, 0, 0, 0}) // 1 << 24 bytes, unmasked
	before := totalAlloc()
	err := readAll(c)
	if got := totalAlloc() - before; got >= 1<<20 {
		t.Fatalf("a 16 MiB claim with no payload allocated %d bytes, want < 1 MiB", got)
	}
	if err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestControlFrameRules: close, ping and pong carry at most 125 bytes and
// are never fragmented (RFC 6455 §5.5); a frame that breaks either rule
// fails the read instead of being answered or skipped.
func TestControlFrameRules(t *testing.T) {
	ok := []byte{0x81, 2, 'o', 'k'}
	for name, bad := range map[string][]byte{
		"ping of 126 bytes": append([]byte{0x89, 126, 0, 126}, make([]byte, 126)...),
		"pong without FIN":  {0x0a, 0},
		"close without FIN": {0x08, 0},
	} {
		_, msg, err := serverConn(append(bad, ok...)).ReadMessage()
		if err == nil || errors.Is(err, ErrClosed) {
			t.Errorf("%s: ReadMessage = %q, %v, want a protocol error", name, msg, err)
		}
	}
	// At the limit, a ping is answered and the message after it delivered.
	raw := append(append([]byte{0x89, 125}, make([]byte, 125)...), ok...)
	if op, msg, err := serverConn(raw).ReadMessage(); err != nil || op != OpText || string(msg) != "ok" {
		t.Fatalf("after a 125-byte ping: %d %q %v", op, msg, err)
	}
}

// FuzzReadMessage feeds arbitrary peer bytes to a server connection: reading
// never panics, and what it allocates is bounded by what the peer sent —
// the payload buffer doubles only once filled, so at most twice the input —
// plus a constant for the reader and error values. The corpus is in
// testdata/fuzz/FuzzReadMessage.
func FuzzReadMessage(f *testing.F) {
	const slack = 64 << 10
	f.Fuzz(func(t *testing.T, raw []byte) {
		c := serverConn(raw)
		before := totalAlloc()
		_ = readAll(c)
		if got := totalAlloc() - before; got > 2*uint64(len(raw))+slack {
			t.Fatalf("%d input bytes allocated %d bytes", len(raw), got)
		}
	})
}
