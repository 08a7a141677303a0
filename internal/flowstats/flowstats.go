// Package flowstats re-derives transport metrics from packet-header
// captures, as CLASP's analysis VM does with the tcpdump output of each
// speed test (§3.3): it identifies HTTP(S) transactions inside encrypted
// flows, estimates round-trip latency from the TCP handshake and
// request/response turns, and estimates the packet loss rate from
// retransmission signatures (segments arriving below the highest sequence
// number already seen).
//
// The package also synthesises captures from a modelled flow (the
// simulator's ground truth), so the estimation path can be validated
// end-to-end: synthesise with known RTT/loss, analyse, compare.
package flowstats

import (
	"fmt"
	"io"
	"net/netip"
	"sort"
	"time"

	"github.com/clasp-measurement/clasp/internal/pcap"
)

// FlowStats summarises one TCP connection seen in a capture.
type FlowStats struct {
	Flow pcap.Flow // canonical orientation (client = Src side of first SYN)

	Packets        int
	DataSegments   int // segments carrying payload toward the client
	RetransSegs    int
	BytesToClient  int64
	BytesToServer  int64
	HandshakeRTTms float64 // SYN -> SYN/ACK at the capture point
	LossRate       float64 // RetransSegs / DataSegments
	Transactions   []Transaction
	First, Last    time.Time
}

// Transaction is one request/response exchange inside the flow, identified
// without decrypting payloads: a client push followed by a server burst.
type Transaction struct {
	Start     time.Time
	End       time.Time
	RespB     int64
	TurnRTTms float64 // request -> first response byte
}

// Analyze reads a pcap stream and returns per-flow statistics, sorted by
// first-packet time.
func Analyze(r io.Reader) ([]*FlowStats, error) {
	pr, err := pcap.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("flowstats: %w", err)
	}
	type state struct {
		stats     *FlowStats
		client    pcap.Endpoint // initiator
		synTime   time.Time
		synSeen   bool
		rttDone   bool
		maxSeq    uint32
		maxSeqSet bool
		reqTime   time.Time
		reqOpen   bool
		lastResp  time.Time
		txStart   time.Time
		txBytes   int64
		txFirst   time.Time
	}
	flows := make(map[pcap.Flow]*state)

	finishTx := func(st *state) {
		if st.txBytes > 0 {
			turn := 0.0
			if !st.txFirst.IsZero() && !st.reqTime.IsZero() {
				turn = st.txFirst.Sub(st.reqTime).Seconds() * 1000
			}
			st.stats.Transactions = append(st.stats.Transactions, Transaction{
				Start: st.txStart, End: st.lastResp, RespB: st.txBytes, TurnRTTms: turn,
			})
		}
		st.txBytes = 0
		st.txFirst = time.Time{}
		st.reqOpen = false
	}

	for {
		ci, data, err := pr.ReadPacket()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("flowstats: %w", err)
		}
		pkt := pcap.Decode(ci, data)
		tcp, ok := pkt.TransportLayer().(*pcap.TCP)
		if !ok {
			continue
		}
		tf, ok := pkt.TransportFlow()
		if !ok {
			continue
		}
		key := tf.Canonical()
		st := flows[key]
		if st == nil {
			st = &state{stats: &FlowStats{Flow: key, First: ci.Timestamp}}
			flows[key] = st
		}
		st.stats.Packets++
		st.stats.Last = ci.Timestamp

		// Handshake: SYN fixes the client side; SYN/ACK gives the RTT at
		// the capture point.
		switch {
		case tcp.SYN && !tcp.ACK:
			st.client = tf.Src
			st.synTime = ci.Timestamp
			st.synSeen = true
		case tcp.SYN && tcp.ACK && st.synSeen && !st.rttDone:
			st.stats.HandshakeRTTms = ci.Timestamp.Sub(st.synTime).Seconds() * 1000
			st.rttDone = true
		}

		toClient := st.synSeen && tf.Dst == st.client
		if tcp.PayloadLen > 0 {
			if toClient {
				st.stats.DataSegments++
				st.stats.BytesToClient += int64(tcp.PayloadLen)
				// Retransmission signature: a data segment whose end does
				// not advance the highest sequence already seen.
				end := tcp.Seq + uint32(tcp.PayloadLen)
				if st.maxSeqSet && int32(end-st.maxSeq) <= 0 {
					st.stats.RetransSegs++
				}
				if !st.maxSeqSet || int32(end-st.maxSeq) > 0 {
					st.maxSeq = end
					st.maxSeqSet = true
				}
				// Transaction response accounting.
				if st.reqOpen && st.txFirst.IsZero() {
					st.txFirst = ci.Timestamp
				}
				st.txBytes += int64(tcp.PayloadLen)
				st.lastResp = ci.Timestamp
			} else {
				st.stats.BytesToServer += int64(tcp.PayloadLen)
				if st.synSeen && tf.Src == st.client && tcp.PSH {
					// Client push = start of a new transaction.
					finishTx(st)
					st.reqOpen = true
					st.reqTime = ci.Timestamp
					st.txStart = ci.Timestamp
				}
			}
		}
	}
	var out []*FlowStats
	for _, st := range flows {
		finishTx(st)
		if st.stats.DataSegments > 0 {
			st.stats.LossRate = float64(st.stats.RetransSegs) / float64(st.stats.DataSegments)
		}
		out = append(out, st.stats)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].First.Before(out[j].First) })
	return out, nil
}

// SynthConfig models one flow to synthesise into a capture taken at the
// client (the measurement VM).
type SynthConfig struct {
	Client, Server netip.Addr
	ClientPort     uint16
	Start          time.Time
	RTTms          float64
	Loss           float64 // probability a data segment needs retransmission
	RateMbps       float64 // delivery rate toward the client
	DurationSec    float64
	Seed           int64 // drives deterministic loss placement
	// Requests inserts n client request pushes evenly through the flow
	// (HTTPS transactions); 1 by default.
	Requests int
}

// The synthesised flow's server port (HTTPS) and segment size.
const (
	serverPort = 443
	mss        = 1448
)

// Synthesize writes a header-only capture of the modelled download flow.
func Synthesize(w io.Writer, cfg SynthConfig) error {
	if cfg.Requests <= 0 {
		cfg.Requests = 1
	}
	if cfg.RateMbps <= 0 || cfg.DurationSec <= 0 {
		return fmt.Errorf("flowstats: rate and duration must be positive")
	}
	pw, err := pcap.NewWriter(w)
	if err != nil {
		return err
	}
	rtt := time.Duration(cfg.RTTms * float64(time.Millisecond))
	now := cfg.Start
	var ipID uint16

	emit := func(at time.Time, src, dst netip.Addr, t *pcap.TCP, payload int) error {
		ipID++
		pkt := pcap.TCPPacket(src, dst, t, ipID, payload)
		return pw.WritePacket(pcap.CaptureInfo{Timestamp: at, Length: len(pkt) + payload}, pkt)
	}

	// Handshake as captured at the client: SYN out, SYN/ACK in after one
	// RTT, ACK out.
	cSeq, sSeq := uint32(1000), uint32(5000)
	if err := emit(now, cfg.Client, cfg.Server, &pcap.TCP{SrcPort: cfg.ClientPort, DstPort: serverPort, Seq: cSeq, SYN: true, Window: 65535}, 0); err != nil {
		return err
	}
	now = now.Add(rtt)
	if err := emit(now, cfg.Server, cfg.Client, &pcap.TCP{SrcPort: serverPort, DstPort: cfg.ClientPort, Seq: sSeq, Ack: cSeq + 1, SYN: true, ACK: true, Window: 65535}, 0); err != nil {
		return err
	}
	cSeq++
	sSeq++
	if err := emit(now, cfg.Client, cfg.Server, &pcap.TCP{SrcPort: cfg.ClientPort, DstPort: serverPort, Seq: cSeq, Ack: sSeq, ACK: true, Window: 65535}, 0); err != nil {
		return err
	}

	totalBytes := int64(cfg.RateMbps * 1e6 / 8 * cfg.DurationSec)
	nSegs := int(totalBytes / mss)
	if nSegs < 1 {
		nSegs = 1
	}
	segGap := time.Duration(cfg.DurationSec * float64(time.Second) / float64(nSegs))
	reqEvery := nSegs / cfg.Requests

	h := uint64(cfg.Seed)
	if h == 0 {
		h = 0x9e3779b97f4a7c15 // xorshift must not start at zero
	}
	nextRand := func() float64 {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		return float64(h%1_000_000) / 1_000_000
	}

	type pending struct {
		at  time.Time
		seq uint32
	}
	var retrans []pending
	ackEvery := 2
	for i := 0; i < nSegs; i++ {
		// Client request pushes (transaction boundaries).
		if reqEvery > 0 && i%reqEvery == 0 {
			if err := emit(now, cfg.Client, cfg.Server, &pcap.TCP{SrcPort: cfg.ClientPort, DstPort: serverPort, Seq: cSeq, Ack: sSeq, ACK: true, PSH: true, Window: 65535}, 200); err != nil {
				return err
			}
			cSeq += 200
			now = now.Add(rtt / 2)
		}
		// Flush due retransmissions first.
		for len(retrans) > 0 && !retrans[0].at.After(now) {
			p := retrans[0]
			retrans = retrans[1:]
			if err := emit(p.at, cfg.Server, cfg.Client, &pcap.TCP{SrcPort: serverPort, DstPort: cfg.ClientPort, Seq: p.seq, Ack: cSeq, ACK: true, Window: 65535}, mss); err != nil {
				return err
			}
		}
		lost := nextRand() < cfg.Loss
		if lost {
			// The original never reaches the client; the retransmission
			// shows up roughly one RTT later with the old sequence.
			retrans = append(retrans, pending{at: now.Add(rtt + rtt/4), seq: sSeq})
		} else {
			if err := emit(now, cfg.Server, cfg.Client, &pcap.TCP{SrcPort: serverPort, DstPort: cfg.ClientPort, Seq: sSeq, Ack: cSeq, ACK: true, PSH: i%16 == 15, Window: 65535}, mss); err != nil {
				return err
			}
		}
		sSeq += mss
		if i%ackEvery == ackEvery-1 {
			if err := emit(now, cfg.Client, cfg.Server, &pcap.TCP{SrcPort: cfg.ClientPort, DstPort: serverPort, Seq: cSeq, Ack: sSeq, ACK: true, Window: 65535}, 0); err != nil {
				return err
			}
		}
		now = now.Add(segGap)
	}
	for _, p := range retrans {
		if err := emit(p.at, cfg.Server, cfg.Client, &pcap.TCP{SrcPort: serverPort, DstPort: cfg.ClientPort, Seq: p.seq, Ack: cSeq, ACK: true, Window: 65535}, mss); err != nil {
			return err
		}
	}
	// FIN exchange.
	if err := emit(now, cfg.Server, cfg.Client, &pcap.TCP{SrcPort: serverPort, DstPort: cfg.ClientPort, Seq: sSeq, Ack: cSeq, ACK: true, FIN: true, Window: 65535}, 0); err != nil {
		return err
	}
	return emit(now.Add(rtt/2), cfg.Client, cfg.Server, &pcap.TCP{SrcPort: cfg.ClientPort, DstPort: serverPort, Seq: cSeq, Ack: sSeq + 1, ACK: true, FIN: true, Window: 65535}, 0)
}
