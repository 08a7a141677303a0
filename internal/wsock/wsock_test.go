package wsock

import (
	"bytes"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// startEchoServer runs a WebSocket echo server and returns its host:port.
func startEchoServer(t *testing.T) string {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, r.Header.Get("Sec-WebSocket-Protocol"))
		if err != nil {
			return
		}
		defer c.Close()
		for {
			op, msg, err := c.ReadMessage()
			if err != nil {
				return
			}
			if err := c.WriteMessage(op, msg); err != nil {
				return
			}
		}
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// dial connects to a WebSocket endpoint the way ndt7's client does: a TCP
// dial, then the client handshake over it.
func dial(host, path, subprotocol string) (*Conn, error) {
	raw, err := net.DialTimeout("tcp", host, 2*time.Second)
	if err != nil {
		return nil, err
	}
	c, err := ClientHandshake(raw, host, path, subprotocol)
	if err != nil {
		raw.Close()
		return nil, err
	}
	return c, nil
}

func TestAcceptKeyRFCVector(t *testing.T) {
	// The example from RFC 6455 §1.3.
	got := AcceptKey("dGhlIHNhbXBsZSBub25jZQ==")
	want := "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
	if got != want {
		t.Errorf("AcceptKey = %q, want %q", got, want)
	}
}

func TestEchoTextAndBinary(t *testing.T) {
	host := startEchoServer(t)
	c, err := dial(host, "/ws", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.WriteMessage(OpText, []byte("hello clasp")); err != nil {
		t.Fatal(err)
	}
	op, msg, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "hello clasp" {
		t.Errorf("echo = op %d %q", op, msg)
	}

	bin := make([]byte, 100000) // forces the 16-bit... actually 64-bit length path
	for i := range bin {
		bin[i] = byte(i)
	}
	if err := c.WriteMessage(OpBinary, bin); err != nil {
		t.Fatal(err)
	}
	op, msg, err = c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpBinary || !bytes.Equal(msg, bin) {
		t.Errorf("binary echo mismatch: op %d len %d", op, len(msg))
	}
}

func TestMediumFrameLengthPath(t *testing.T) {
	host := startEchoServer(t)
	c, err := dial(host, "/ws", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// 200 bytes exercises the 126/16-bit extended length.
	payload := bytes.Repeat([]byte{0xab}, 200)
	if err := c.WriteMessage(OpBinary, payload); err != nil {
		t.Fatal(err)
	}
	_, msg, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(msg, payload) {
		t.Error("200-byte frame mismatch")
	}
}

func TestSubprotocolEchoed(t *testing.T) {
	host := startEchoServer(t)
	c, err := dial(host, "/ndt/v7/download", "net.measurementlab.ndt.v7")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
}

func TestCloseHandshake(t *testing.T) {
	host := startEchoServer(t)
	c, err := dial(host, "/ws", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteMessage(OpText, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("write after close: %v", err)
	}
	if _, _, err := c.ReadMessage(); !errors.Is(err, ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
}

func TestServerReceivesClose(t *testing.T) {
	done := make(chan error, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "")
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, _, err = c.ReadMessage()
		done <- err
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	c, err := dial(host, "/", "")
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Errorf("server saw %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never observed close")
	}
}

func TestPingAnsweredTransparently(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "")
		if err != nil {
			return
		}
		defer c.Close()
		// Send a ping, then a data message; the client must pong and
		// still deliver the data message to its caller.
		if err := c.writeFrame(OpPing, []byte("probe")); err != nil {
			return
		}
		if err := c.WriteMessage(OpText, []byte("after-ping")); err != nil {
			return
		}
		// Expect the pong back.
		fin, op, data, err := c.readFrame(nil)
		if err == nil && fin && op == OpPong && string(data) == "probe" {
			_ = c.WriteMessage(OpText, []byte("pong-ok"))
		} else {
			_ = c.WriteMessage(OpText, []byte("pong-bad"))
		}
		// Wait for client close.
		_, _, _ = c.ReadMessage()
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	c, err := dial(host, "/", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, msg, err := c.ReadMessage()
	if err != nil || string(msg) != "after-ping" {
		t.Fatalf("first message = %q, %v", msg, err)
	}
	_, msg, err = c.ReadMessage()
	if err != nil || string(msg) != "pong-ok" {
		t.Fatalf("pong verdict = %q, %v", msg, err)
	}
}

func TestFragmentedMessageReassembly(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "")
		if err != nil {
			return
		}
		defer c.Close()
		// Hand-craft a fragmented text message: "frag" + "ment" + "ed".
		raw := c.conn
		frames := [][]byte{
			{0x01, 4, 'f', 'r', 'a', 'g'}, // text, no FIN
			{0x00, 4, 'm', 'e', 'n', 't'}, // continuation, no FIN
			{0x80, 2, 'e', 'd'},           // continuation, FIN
		}
		for _, f := range frames {
			if _, err := raw.Write(f); err != nil {
				return
			}
		}
		_, _, _ = c.ReadMessage() // wait for close
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	c, err := dial(host, "/", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	op, msg, err := c.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != OpText || string(msg) != "fragmented" {
		t.Errorf("reassembled = op %d %q", op, msg)
	}
}

func TestUpgradeRejectsPlainHTTP(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, err := Upgrade(w, r, ""); err == nil {
			t.Error("plain GET upgraded")
		}
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d", resp.StatusCode)
	}
}

func TestDialErrors(t *testing.T) {
	// Non-websocket HTTP server.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusTeapot)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	if _, err := dial(host, "/", ""); err == nil {
		t.Error("handshake against teapot succeeded")
	}
}

func TestClientHandshakeBadAccept(t *testing.T) {
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
		buf := make([]byte, 4096)
		conn.Read(buf)
		conn.Write([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\nConnection: Upgrade\r\nSec-WebSocket-Accept: bogus\r\n\r\n"))
	}()
	if _, err := dial(ln.Addr().String(), "/", ""); err == nil {
		t.Error("bad accept key accepted")
	}
}

func TestOversizeFrameRejected(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c, err := Upgrade(w, r, "")
		if err != nil {
			return
		}
		defer c.Close()
		// Claim a 1 GiB frame.
		hdr := []byte{0x82, 127, 0, 0, 0, 0, 0x40, 0, 0, 0}
		c.conn.Write(hdr)
		time.Sleep(100 * time.Millisecond)
	}))
	defer srv.Close()
	host := strings.TrimPrefix(srv.URL, "http://")
	c, err := dial(host, "/", "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(time.Second))
	if _, _, err := c.ReadMessage(); err == nil {
		t.Error("oversize frame accepted")
	}
}
