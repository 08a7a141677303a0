// Package tcpmodel estimates the throughput a TCP bulk-transfer flow
// achieves over a path, given round-trip time, loss rate, the bandwidth
// available at the bottleneck, and test duration. CLASP's speed tests are
// 10-120 s TCP transfers, so the reported number is the time-average of a
// flow that spends its first round trips in slow start and then runs at the
// minimum of the available bandwidth and the loss-limited TCP-friendly rate.
//
// The steady-state model is PFTK (Padhye, Firoiu, Towsley, Kurose, 1998),
// which extends the Mathis 1/sqrt(p) law with retransmission timeouts and is
// accurate at the >10 % loss rates the paper observed on lossy premium-tier
// egress ports (§4.1).
package tcpmodel

import "math"

// Default protocol constants.
const (
	// DefaultMSS is the sender's maximum segment size in bytes.
	DefaultMSS = 1448.0
	// ackedPerWindow is the PFTK "b" parameter: packets acknowledged per
	// ACK (2 with delayed ACKs).
	ackedPerWindow = 2.0
	// minRTOms is the conventional minimum retransmission timeout.
	minRTOms = 200.0
)

// FlowParams describes one modelled TCP transfer.
type FlowParams struct {
	RTTms          float64 // base round-trip time, milliseconds
	Loss           float64 // packet loss probability in [0, 1)
	BottleneckMbps float64 // bandwidth available to this flow at the bottleneck
	DurationSec    float64 // test duration in seconds
	// Streams is the number of parallel TCP connections; speed test
	// clients open several (Ookla and the Xfinity web test use 4-8) so
	// clean long-RTT paths are not single-flow-Reno limited. Zero means 1.
	Streams int
}

// SteadyStateMbps returns the PFTK loss-limited send rate in Mbps for the
// given RTT and loss rate, ignoring any bandwidth cap. Zero loss returns
// +Inf (the flow is then purely bandwidth-limited).
func SteadyStateMbps(rttMs, loss, mssBytes float64) float64 {
	if mssBytes <= 0 {
		mssBytes = DefaultMSS
	}
	if rttMs <= 0 {
		rttMs = 1
	}
	if loss <= 0 {
		return math.Inf(1)
	}
	if loss >= 1 {
		return 0
	}
	rtt := rttMs / 1000
	rto := math.Max(4*rttMs, minRTOms) / 1000
	b := ackedPerWindow
	// PFTK full model, packets per second.
	denom := rtt*math.Sqrt(2*b*loss/3) +
		rto*math.Min(1, 3*math.Sqrt(3*b*loss/8))*loss*(1+32*loss*loss)
	pps := 1 / denom
	return pps * mssBytes * 8 / 1e6
}

// slowStartSeconds estimates the time a flow needs to ramp from one segment
// to the target rate, doubling its window every RTT.
func slowStartSeconds(targetMbps, rttMs, mssBytes float64) float64 {
	if targetMbps <= 0 || rttMs <= 0 {
		return 0
	}
	bdpSegments := targetMbps * 1e6 / 8 * (rttMs / 1000) / mssBytes
	if bdpSegments <= 1 {
		return 0
	}
	rounds := math.Log2(bdpSegments)
	return rounds * rttMs / 1000
}

// Throughput returns the average throughput in Mbps a TCP flow reports over
// the test duration: the minimum of the bottleneck share and the PFTK rate,
// discounted for the slow-start ramp.
func Throughput(p FlowParams) float64 {
	if p.DurationSec <= 0 || p.BottleneckMbps <= 0 {
		return 0
	}
	streams := p.Streams
	if streams < 1 {
		streams = 1
	}
	rate := p.BottleneckMbps
	if ss := SteadyStateMbps(p.RTTms, p.Loss, DefaultMSS) * float64(streams); ss < rate {
		rate = ss
	}
	if rate <= 0 {
		return 0
	}
	// Slow-start discount: roughly half the ramp time is "lost". Streams
	// ramp concurrently, so the ramp is per-stream.
	ramp := slowStartSeconds(rate/float64(streams), p.RTTms, DefaultMSS)
	effective := p.DurationSec - ramp/2
	if effective < p.DurationSec*0.25 {
		effective = p.DurationSec * 0.25
	}
	return rate * effective / p.DurationSec
}
