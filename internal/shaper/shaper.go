// Package shaper rate-limits net.Conn traffic with a token bucket, standing
// in for the Linux tc configuration the paper applied to its measurement
// VMs (1 Gbps downlink / 100 Mbps uplink, §3.2). Wrapping a connection used
// by the real speed test protocols reproduces the capped-throughput
// behaviour of the shaped NIC on loopback.
package shaper

import (
	"net"
	"sync"
	"time"
)

// Bucket is a token bucket: tokens accrue at Rate bytes/second up to Burst
// bytes. The zero value is invalid; use NewBucket.
type Bucket struct {
	mu     sync.Mutex
	rate   float64 // bytes per second
	burst  float64 // max accumulated bytes
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

// NewBucket creates a bucket. rateMbps <= 0 means unlimited. The burst is
// 64 KiB or one 50 ms window at the rate, whichever is larger.
func NewBucket(rateMbps float64) *Bucket {
	b := &Bucket{
		now:   time.Now,
		sleep: time.Sleep,
	}
	if rateMbps > 0 {
		b.rate = rateMbps * 1e6 / 8
		b.burst = max(b.rate*0.05, 64<<10)
		b.tokens = b.burst
	}
	return b
}

// Unlimited reports whether the bucket imposes no limit.
func (b *Bucket) Unlimited() bool { return b.rate <= 0 }

// Wait blocks until n bytes of tokens are available and consumes them.
// Requests larger than the burst are split internally.
func (b *Bucket) Wait(n int) {
	if b.Unlimited() || n <= 0 {
		return
	}
	for n > 0 {
		chunk := n
		if float64(chunk) > b.burst {
			chunk = int(b.burst)
		}
		if d := b.reserve(chunk); d > 0 {
			b.sleep(d)
		}
		n -= chunk
	}
}

// reserve consumes chunk tokens (going negative) and returns how long the
// caller must wait for the balance to become non-negative.
func (b *Bucket) reserve(chunk int) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	b.tokens -= float64(chunk)
	if b.tokens >= 0 {
		return 0
	}
	return time.Duration(-b.tokens / b.rate * float64(time.Second))
}

// Options configures a shaped connection.
type Options struct {
	// ReadMbps / WriteMbps cap the two directions; <= 0 leaves a
	// direction unlimited.
	ReadMbps  float64
	WriteMbps float64
}

// Conn is a rate-limited net.Conn. Like tc, it shapes rate only: latency
// comes from the network.
type Conn struct {
	net.Conn
	rd, wr *Bucket
}

// NewConn wraps c with token-bucket shaping.
func NewConn(c net.Conn, opts Options) *Conn {
	return &Conn{Conn: c, rd: NewBucket(opts.ReadMbps), wr: NewBucket(opts.WriteMbps)}
}

// Read implements net.Conn, pacing consumption at the read rate.
func (c *Conn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rd.Wait(n)
	}
	return n, err
}

// Write implements net.Conn, pacing output at the write rate.
func (c *Conn) Write(p []byte) (int, error) {
	// Pace before sending so the receiver never sees a burst above the
	// configured rate.
	c.wr.Wait(len(p))
	return c.Conn.Write(p)
}
