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

// burst8 is the burst of an 8 Mbps bucket: 64 KiB, more than its 50 ms
// window of 50 kB.
const burst8 = 64 << 10

func newFakeBucket(rateMbps float64) (*Bucket, *fakeClock) {
	fc := &fakeClock{t: time.Unix(0, 0)}
	b := NewBucket(rateMbps)
	b.now = func() time.Time { return fc.t }
	b.sleep = func(d time.Duration) {
		fc.slept += d
		fc.t = fc.t.Add(d)
	}
	return b, fc
}

func TestBucketUnlimited(t *testing.T) {
	b, fc := newFakeBucket(0)
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
	b, fc := newFakeBucket(8)
	b.Wait(2_000_000 + burst8)
	got := fc.slept.Seconds()
	if got < 1.8 || got > 2.2 {
		t.Errorf("slept %.2fs for 2MB at 1MB/s, want ~2s", got)
	}
}

func TestBucketBurstFreeOfCharge(t *testing.T) {
	b, fc := newFakeBucket(8)
	b.Wait(burst8) // exactly the initial burst
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
	b, fc := newFakeBucket(8)
	b.Wait(burst8)
	// Advance one second: 1 MB of tokens accrue (capped at the burst).
	fc.t = fc.t.Add(time.Second)
	before := fc.slept
	b.Wait(burst8)
	if fc.slept != before {
		t.Errorf("refilled bucket slept %v", fc.slept-before)
	}
}

func TestBucketLargeRequestSplit(t *testing.T) {
	b, fc := newFakeBucket(8)
	// 1 MiB at 1 MB/s in 64 KiB chunks: the first chunk is the burst, the
	// other 15 wait ~0.98 s in all.
	b.Wait(1 << 20)
	got := fc.slept.Seconds()
	if want := float64(1<<20-burst8) / 1e6; got < want-0.01 || got > want+0.01 {
		t.Errorf("slept %.3fs, want %.3f", got, want)
	}
}

func TestBucketZeroAndNegative(t *testing.T) {
	b, fc := newFakeBucket(8)
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
