package shaper

import (
	"io"
	"net"
	"testing"
	"time"
)

// fakeClock drives a bucket deterministically.
type fakeClock struct {
	t     time.Time
	slept time.Duration
}

func newFakeBucket(rateMbps float64, burst int) (*Bucket, *fakeClock) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	b := NewBucket(rateMbps, burst)
	b.now = func() time.Time { return fc.t }
	b.sleep = func(d time.Duration) {
		fc.slept += d
		fc.t = fc.t.Add(d)
	}
	return b, fc
}

func TestBucketUnlimited(t *testing.T) {
	b, fc := newFakeBucket(0, 0)
	if !b.Unlimited() {
		t.Fatal("rate 0 should be unlimited")
	}
	b.Wait(1 << 30)
	if fc.slept != 0 {
		t.Errorf("unlimited bucket slept %v", fc.slept)
	}
}

func TestBucketRateEnforced(t *testing.T) {
	// 8 Mbps = 1 MB/s. Waiting for 2 MB beyond the burst must take ~2 s.
	b, fc := newFakeBucket(8, 1024)
	b.Wait(2_000_000 + 1024)
	got := fc.slept.Seconds()
	if got < 1.8 || got > 2.2 {
		t.Errorf("slept %.2fs for 2MB at 1MB/s, want ~2s", got)
	}
}

func TestBucketBurstFreeOfCharge(t *testing.T) {
	b, fc := newFakeBucket(8, 100000)
	b.Wait(100000) // exactly the initial burst
	if fc.slept != 0 {
		t.Errorf("burst-sized request slept %v", fc.slept)
	}
	// The next byte must wait.
	b.Wait(1000)
	if fc.slept == 0 {
		t.Error("post-burst request did not wait")
	}
}

func TestBucketRefillsOverTime(t *testing.T) {
	b, fc := newFakeBucket(8, 10000)
	b.Wait(10000)
	// Advance one second: 1 MB of tokens accrue (capped at burst 10 KB).
	fc.t = fc.t.Add(time.Second)
	before := fc.slept
	b.Wait(10000)
	if fc.slept != before {
		t.Errorf("refilled bucket slept %v", fc.slept-before)
	}
}

func TestBucketLargeRequestSplit(t *testing.T) {
	b, fc := newFakeBucket(80, 10000)
	// 1 MB at 10 MB/s: ~0.1 s even though burst is tiny.
	b.Wait(1 << 20)
	got := fc.slept.Seconds()
	if got < 0.08 || got > 0.15 {
		t.Errorf("slept %.3fs, want ~0.105", got)
	}
}

func TestBucketZeroAndNegative(t *testing.T) {
	b, fc := newFakeBucket(8, 1000)
	b.Wait(0)
	b.Wait(-5)
	if fc.slept != 0 {
		t.Errorf("no-op waits slept %v", fc.slept)
	}
}

// pipeConn builds a shaped loopback TCP pair.
func pipeConn(t *testing.T, opts Options) (client net.Conn, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			close(done)
			return
		}
		done <- c
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, ok := <-done
	if !ok {
		t.Fatal("accept failed")
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return NewConn(c, opts), s
}

func TestShapedWriteThroughput(t *testing.T) {
	// 80 Mbps write cap (10 MB/s, a 500 KB burst free); sending 4 MB
	// should take ~0.37s (±generous CI slack).
	client, server := pipeConn(t, Options{WriteMbps: 80})
	go func() {
		io.Copy(io.Discard, server)
	}()
	payload := make([]byte, 256<<10)
	start := time.Now()
	total := 0
	for total < 4<<20 {
		n, err := client.Write(payload)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	elapsed := time.Since(start).Seconds()
	mbps := float64(total) * 8 / 1e6 / elapsed
	if mbps > 110 {
		t.Errorf("shaped write ran at %.0f Mbps, cap 80", mbps)
	}
	if mbps < 40 {
		t.Errorf("shaped write ran at %.0f Mbps, suspiciously slow", mbps)
	}
}

func TestShapedReadThroughput(t *testing.T) {
	client, server := pipeConn(t, Options{ReadMbps: 80})
	go func() {
		payload := make([]byte, 256<<10)
		for i := 0; i < 20; i++ {
			if _, err := server.Write(payload); err != nil {
				return
			}
		}
		server.Close()
	}()
	start := time.Now()
	n, _ := io.Copy(io.Discard, client)
	elapsed := time.Since(start).Seconds()
	mbps := float64(n) * 8 / 1e6 / elapsed
	if mbps > 115 {
		t.Errorf("shaped read ran at %.0f Mbps, cap 80", mbps)
	}
}

func TestLatencyOption(t *testing.T) {
	client, server := pipeConn(t, Options{Latency: 80 * time.Millisecond})
	go server.Write([]byte("pong"))
	start := time.Now()
	buf := make([]byte, 4)
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 75*time.Millisecond {
		t.Errorf("first read returned after %v, want >= 80ms", d)
	}
	// Second read has no added latency.
	go server.Write([]byte("pong"))
	start = time.Now()
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Errorf("second read took %v", d)
	}
}
