package tcpmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSteadyStateZeroLossIsUnbounded(t *testing.T) {
	if v := SteadyStateMbps(50, 0); !math.IsInf(v, 1) {
		t.Errorf("zero loss = %v, want +Inf", v)
	}
}

func TestSteadyStateTotalLossIsZero(t *testing.T) {
	if v := SteadyStateMbps(50, 1); v != 0 {
		t.Errorf("loss=1 gives %v, want 0", v)
	}
}

func TestSteadyStateKnownMagnitudes(t *testing.T) {
	// 50 ms RTT, 1e-6 loss (clean path): hundreds of Mbps.
	v := SteadyStateMbps(50, 1e-6)
	if v < 100 || v > 3000 {
		t.Errorf("50ms/1e-6 = %.1f Mbps, want hundreds", v)
	}
	// 50 ms RTT, 10% loss (the premium-tier pathology): a few Mbps at most.
	w := SteadyStateMbps(50, 0.10)
	if w > 10 {
		t.Errorf("50ms/10%% = %.1f Mbps, want < 10", w)
	}
	if w >= v {
		t.Error("higher loss should give lower throughput")
	}
}

func TestSteadyStateMonotoneInLoss(t *testing.T) {
	prev := math.Inf(1)
	for _, p := range []float64{1e-5, 1e-4, 1e-3, 1e-2, 0.05, 0.1, 0.3} {
		v := SteadyStateMbps(60, p)
		if v > prev {
			t.Errorf("throughput rose with loss at p=%v: %v > %v", p, v, prev)
		}
		prev = v
	}
}

func TestSteadyStateMonotoneInRTT(t *testing.T) {
	prev := math.Inf(1)
	for _, rtt := range []float64{10, 30, 60, 120, 250} {
		v := SteadyStateMbps(rtt, 0.001)
		if v > prev {
			t.Errorf("throughput rose with RTT at %vms", rtt)
		}
		prev = v
	}
}

func TestMathisVsPFTKLowLoss(t *testing.T) {
	// The classic Mathis et al. approximation (MSS/RTT)*(C/sqrt(p)), the law
	// PFTK extends with timeouts.
	mathis := func(rttMs, loss float64) float64 {
		return DefaultMSS * 8 / (rttMs / 1000) * 1.22 / math.Sqrt(loss) / 1e6
	}
	// At low loss, PFTK approaches Mathis (timeout term negligible).
	m := mathis(80, 1e-5)
	p := SteadyStateMbps(80, 1e-5)
	ratio := p / m
	if ratio < 0.5 || ratio > 1.5 {
		t.Errorf("PFTK/Mathis = %.2f at low loss, want ~1", ratio)
	}
	// At high loss, PFTK must be well below Mathis.
	m = mathis(80, 0.2)
	p = SteadyStateMbps(80, 0.2)
	if p > m*0.8 {
		t.Errorf("PFTK (%.2f) not sufficiently below Mathis (%.2f) at 20%% loss", p, m)
	}
}

func TestThroughputCappedByBottleneck(t *testing.T) {
	v := Throughput(FlowParams{RTTms: 20, Loss: 0, BottleneckMbps: 400, DurationSec: 30})
	if v > 400 {
		t.Errorf("throughput %v exceeds bottleneck 400", v)
	}
	if v < 300 {
		t.Errorf("throughput %v too far below bottleneck for a 30s test", v)
	}
}

func TestThroughputLossLimited(t *testing.T) {
	// 10% loss makes the flow loss-limited far below a 1 Gbps bottleneck.
	v := Throughput(FlowParams{RTTms: 50, Loss: 0.1, BottleneckMbps: 1000, DurationSec: 30})
	if v > 20 {
		t.Errorf("10%% loss throughput = %v Mbps, want heavily degraded", v)
	}
}

func TestThroughputSlowStartPenaltyShortTests(t *testing.T) {
	short := Throughput(FlowParams{RTTms: 150, Loss: 0, BottleneckMbps: 600, DurationSec: 5})
	long := Throughput(FlowParams{RTTms: 150, Loss: 0, BottleneckMbps: 600, DurationSec: 120})
	if short >= long {
		t.Errorf("short test (%v) should average below long test (%v)", short, long)
	}
	if long < 550 {
		t.Errorf("120s test = %v, want near 600", long)
	}
}

func TestThroughputZeroes(t *testing.T) {
	if v := Throughput(FlowParams{RTTms: 50, Loss: 0.01, BottleneckMbps: 0, DurationSec: 10}); v != 0 {
		t.Errorf("zero bottleneck: %v", v)
	}
	if v := Throughput(FlowParams{RTTms: 50, Loss: 0.01, BottleneckMbps: 100, DurationSec: 0}); v != 0 {
		t.Errorf("zero duration: %v", v)
	}
}

func TestSlowStartSeconds(t *testing.T) {
	if s := slowStartSeconds(0, 50); s != 0 {
		t.Errorf("zero target: %v", s)
	}
	// 600 Mbps at 100 ms: BDP ~5180 segments, ~12.3 rounds, ~1.2 s.
	s := slowStartSeconds(600, 100)
	if s < 0.8 || s > 2 {
		t.Errorf("slow start = %vs, want ~1.2", s)
	}
	// Tiny target below one segment per RTT needs no ramp.
	if s := slowStartSeconds(0.01, 10); s != 0 {
		t.Errorf("sub-segment target: %v", s)
	}
}

// Property: throughput is always within [0, bottleneck] and finite.
func TestThroughputBoundsProperty(t *testing.T) {
	f := func(rtt, loss, cap, dur uint16) bool {
		p := FlowParams{
			RTTms:          float64(rtt%500) + 1,
			Loss:           float64(loss%1000) / 1000,
			BottleneckMbps: float64(cap%2000) + 1,
			DurationSec:    float64(dur%120) + 1,
		}
		v := Throughput(p)
		return v >= 0 && v <= p.BottleneckMbps+1e-9 && !math.IsNaN(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: more available bandwidth never hurts.
func TestThroughputMonotoneInBottleneckProperty(t *testing.T) {
	f := func(rtt, loss uint16) bool {
		base := FlowParams{
			RTTms:       float64(rtt%300) + 5,
			Loss:        float64(loss%100) / 2000,
			DurationSec: 30,
		}
		prev := -1.0
		for _, c := range []float64{10, 50, 100, 500, 1000} {
			base.BottleneckMbps = c
			v := Throughput(base)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
