package ndt7

import (
	"context"
	"encoding/json"
	"net"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/shaper"
	"github.com/clasp-measurement/clasp/internal/wsock"
)

func startServer(t *testing.T, d time.Duration) string {
	t.Helper()
	srv := httptest.NewServer(&Handler{Duration: d})
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// dial opens a WebSocket to path the way the client does.
func dial(addr, path string) (*wsock.Conn, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	conn, _, err := NewClient(Config{}).connect(ctx, addr, path)
	return conn, err
}

func TestDownloadUploadLoopback(t *testing.T) {
	addr := startServer(t, 400*time.Millisecond)
	c := NewClient(Config{Duration: 400 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DownloadMbps <= 0 || res.UploadMbps <= 0 {
		t.Errorf("throughput missing: %+v", res)
	}
	if res.BytesDown < minMessageSize || res.BytesUp < minMessageSize {
		t.Errorf("byte counts too small: %+v", res)
	}
	if res.LatencyMs <= 0 || res.LatencyMs > 200 {
		t.Errorf("handshake RTT = %v", res.LatencyMs)
	}
	if res.Platform != "mlab" {
		t.Errorf("platform = %q", res.Platform)
	}
}

func TestServerSendsMeasurements(t *testing.T) {
	addr := startServer(t, 600*time.Millisecond)
	conn, err := dial(addr, DownloadPath)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	gotMeasurement := false
	var lastBytes int64
	deadline := time.Now().Add(3 * time.Second)
	conn.SetDeadline(deadline)
	var received int64
	for time.Now().Before(deadline) {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		switch op {
		case wsock.OpBinary:
			received += int64(len(msg))
		case wsock.OpText:
			var m Measurement
			if err := json.Unmarshal(msg, &m); err != nil {
				t.Fatalf("bad measurement JSON: %v (%q)", err, msg)
			}
			if m.Origin != "server" || m.Test != "download" || m.AppInfo == nil {
				t.Errorf("measurement fields: %+v", m)
			}
			if m.AppInfo.NumBytes < lastBytes {
				t.Error("NumBytes went backwards")
			}
			lastBytes = m.AppInfo.NumBytes
			gotMeasurement = true
		}
	}
	if !gotMeasurement {
		t.Error("no server measurement message observed")
	}
	if received == 0 {
		t.Error("no binary data received")
	}
}

func TestUploadServerCounts(t *testing.T) {
	addr := startServer(t, time.Second)
	conn, err := dial(addr, UploadPath)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	payload := make([]byte, 1<<16)
	var sent int64
	// Send for ~400ms then wait for a measurement echoing our count.
	start := time.Now()
	for time.Since(start) < 400*time.Millisecond {
		if err := conn.WriteMessage(wsock.OpBinary, payload); err != nil {
			t.Fatal(err)
		}
		sent += int64(len(payload))
	}
	op, msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if op != wsock.OpText {
		t.Fatalf("expected measurement, got opcode %d", op)
	}
	var m Measurement
	if err := json.Unmarshal(msg, &m); err != nil {
		t.Fatal(err)
	}
	if m.Test != "upload" || m.AppInfo == nil {
		t.Fatalf("measurement: %+v", m)
	}
	if m.AppInfo.NumBytes <= 0 || m.AppInfo.NumBytes > sent {
		t.Errorf("server counted %d bytes, client sent %d", m.AppInfo.NumBytes, sent)
	}
}

func TestShapedDownloadRespectsCap(t *testing.T) {
	addr := startServer(t, 900*time.Millisecond)
	c := NewClient(Config{
		Duration: 900 * time.Millisecond,
		Dial: func(ctx context.Context, a string) (net.Conn, error) {
			raw, err := net.Dial("tcp", a)
			if err != nil {
				return nil, err
			}
			return shaper.NewConn(raw, shaper.Options{ReadMbps: 100}), nil
		},
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	mbps, _, _, err := c.Download(ctx, addr)
	if err != nil {
		t.Fatal(err)
	}
	if mbps > 140 {
		t.Errorf("shaped ndt7 download = %.0f Mbps, cap 100", mbps)
	}
	if mbps < 20 {
		t.Errorf("shaped ndt7 download = %.0f Mbps, suspiciously slow", mbps)
	}
}

func TestUnknownPath404(t *testing.T) {
	addr := startServer(t, time.Second)
	if _, err := dial(addr, "/ndt/v7/bogus"); err == nil {
		t.Error("bogus path upgraded")
	}
}

func TestClientErrors(t *testing.T) {
	c := NewClient(Config{Duration: 100 * time.Millisecond})
	ctx := context.Background()
	if _, err := c.Run(ctx, "127.0.0.1:1"); err == nil {
		t.Error("refused connection: want error")
	}
}

func TestMessageSizeScaling(t *testing.T) {
	addr := startServer(t, 500*time.Millisecond)
	conn, err := dial(addr, DownloadPath)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(3 * time.Second))
	sizes := map[int]bool{}
	for {
		op, msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		if op == wsock.OpBinary {
			sizes[len(msg)] = true
		}
	}
	if len(sizes) < 2 {
		t.Errorf("message size never scaled: %v", sizes)
	}
	if !sizes[minMessageSize] {
		t.Error("initial message size not observed")
	}
}
