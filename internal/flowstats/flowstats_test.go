package flowstats

import (
	"bytes"
	"math"
	"net/netip"
	"testing"
	"time"
)

var (
	clientIP = netip.MustParseAddr("15.10.0.10")
	serverIP = netip.MustParseAddr("20.5.16.1")
	start    = time.Date(2020, 5, 1, 12, 0, 0, 0, time.UTC)
)

func synth(t *testing.T, cfg SynthConfig) []*FlowStats {
	t.Helper()
	if cfg.Client == (netip.Addr{}) {
		cfg.Client = clientIP
	}
	if cfg.Server == (netip.Addr{}) {
		cfg.Server = serverIP
	}
	if cfg.ClientPort == 0 {
		cfg.ClientPort = 50123
	}
	if cfg.Start.IsZero() {
		cfg.Start = start
	}
	var buf bytes.Buffer
	if err := Synthesize(&buf, cfg); err != nil {
		t.Fatal(err)
	}
	flows, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return flows
}

func TestSynthesizeAnalyzeRTT(t *testing.T) {
	flows := synth(t, SynthConfig{RTTms: 48, RateMbps: 100, DurationSec: 2, Seed: 1})
	if len(flows) != 1 {
		t.Fatalf("flows = %d", len(flows))
	}
	f := flows[0]
	if math.Abs(f.HandshakeRTTms-48) > 1 {
		t.Errorf("handshake RTT = %.1f, want ~48", f.HandshakeRTTms)
	}
}

func TestSynthesizeAnalyzeLoss(t *testing.T) {
	cases := []float64{0, 0.02, 0.10, 0.30}
	for _, loss := range cases {
		flows := synth(t, SynthConfig{RTTms: 40, RateMbps: 80, DurationSec: 4, Loss: loss, Seed: 9})
		f := flows[0]
		got := f.LossRate
		tol := 0.25*loss + 0.005
		if math.Abs(got-loss) > tol {
			t.Errorf("loss %.2f: estimated %.4f (tolerance %.4f)", loss, got, tol)
		}
	}
}

func TestSynthesizeAnalyzeThroughput(t *testing.T) {
	flows := synth(t, SynthConfig{RTTms: 30, RateMbps: 200, DurationSec: 3, Seed: 2})
	f := flows[0]
	got := float64(f.BytesToClient) * 8 / 1e6 / f.Last.Sub(f.First).Seconds()
	if got < 150 || got > 250 {
		t.Errorf("estimated throughput %.1f Mbps, modelled 200", got)
	}
	if f.BytesToClient < f.BytesToServer {
		t.Error("download flow moved more data to the server than the client")
	}
}

func TestTransactionsIdentified(t *testing.T) {
	flows := synth(t, SynthConfig{RTTms: 40, RateMbps: 100, DurationSec: 4, Requests: 4, Seed: 3})
	f := flows[0]
	if len(f.Transactions) < 3 || len(f.Transactions) > 5 {
		t.Fatalf("transactions = %d, want ~4", len(f.Transactions))
	}
	var total int64
	for _, tx := range f.Transactions {
		if tx.RespB <= 0 {
			t.Errorf("transaction with no response bytes: %+v", tx)
		}
		if tx.End.Before(tx.Start) {
			t.Errorf("transaction ends before it starts: %+v", tx)
		}
		total += tx.RespB
	}
	if total < f.BytesToClient*8/10 {
		t.Errorf("transactions cover %d of %d bytes", total, f.BytesToClient)
	}
}

func TestSynthesizeValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := Synthesize(&buf, SynthConfig{Client: clientIP, Server: serverIP}); err == nil {
		t.Error("zero rate/duration accepted")
	}
}

func TestAnalyzeGarbage(t *testing.T) {
	if _, err := Analyze(bytes.NewReader([]byte("not a pcap"))); err == nil {
		t.Error("garbage capture accepted")
	}
}

func TestAnalyzeMultipleFlows(t *testing.T) {
	// Interleave two flows in one capture by synthesising into one buffer
	// won't work (two global headers), so synthesise one flow and verify
	// the flow keying keeps both directions together.
	flows := synth(t, SynthConfig{RTTms: 25, RateMbps: 60, DurationSec: 1, Seed: 5})
	if len(flows) != 1 {
		t.Fatalf("directions split into %d flows", len(flows))
	}
	if flows[0].Packets < 10 {
		t.Errorf("packets = %d", flows[0].Packets)
	}
}
