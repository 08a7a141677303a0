package pcap

import (
	"bytes"
	"io"
	"net/netip"
	"testing"
	"testing/quick"
	"time"
)

var (
	srcIP = netip.MustParseAddr("10.0.0.1")
	dstIP = netip.MustParseAddr("192.0.2.9")
)

func samplePacket(seq uint32, payload int) []byte {
	return TCPPacket(srcIP, dstIP, &TCP{
		SrcPort: 443, DstPort: 51000, Seq: seq, Ack: 100, ACK: true, PSH: payload > 0, Window: 65535,
	}, 7, payload)
}

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := time.Date(2020, 5, 1, 12, 0, 0, 123456000, time.UTC)
	var wrote [][]byte
	for i := 0; i < 5; i++ {
		pkt := samplePacket(uint32(i*1448), 1448)
		wrote = append(wrote, pkt)
		if err := w.WritePacket(CaptureInfo{Timestamp: base.Add(time.Duration(i) * time.Millisecond), Length: len(pkt) + 1448}, pkt); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; ; i++ {
		ci, data, err := r.ReadPacket()
		if err == io.EOF {
			if i != 5 {
				t.Fatalf("read %d packets, want 5", i)
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > 96 {
			t.Errorf("packet %d exceeds snaplen: %d", i, len(data))
		}
		if ci.Length != len(wrote[i])+1448 {
			t.Errorf("packet %d wire length %d", i, ci.Length)
		}
		want := base.Add(time.Duration(i) * time.Millisecond)
		if ci.Timestamp.Unix() != want.Unix() {
			t.Errorf("packet %d timestamp %v, want %v", i, ci.Timestamp, want)
		}
		// Microsecond precision preserved.
		if ci.Timestamp.Nanosecond()/1000 != want.Nanosecond()/1000 {
			t.Errorf("packet %d usec %d, want %d", i, ci.Timestamp.Nanosecond()/1000, want.Nanosecond()/1000)
		}
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("not a pcap file at all......."))); err != ErrBadMagic {
		t.Errorf("garbage magic: %v", err)
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty stream: want error")
	}
}

func TestReaderRejectsImplausibleRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	_ = w
	// Append a record header claiming a 2 MB packet.
	rec := make([]byte, 16)
	rec[8] = 0
	rec[9] = 0
	rec[10] = 0x20 // caplen = 0x200000
	buf.Write(rec)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.ReadPacket(); err == nil {
		t.Error("implausible caplen: want error")
	}
}

func TestDecodeTCPPacket(t *testing.T) {
	raw := TCPPacket(srcIP, dstIP, &TCP{
		SrcPort: 8080, DstPort: 443, Seq: 1000, Ack: 2000,
		SYN: true, ACK: true, Window: 29200,
	}, 42, 0)
	p := Decode(CaptureInfo{}, raw)
	ip, ok := p.NetworkLayer().(*IPv4)
	if !ok {
		t.Fatal("no IPv4 layer")
	}
	if ip.SrcIP != srcIP || ip.DstIP != dstIP || ip.TTL != 60 || ip.ID != 42 {
		t.Errorf("IPv4 fields wrong: %+v", ip)
	}
	tcp, ok := p.TransportLayer().(*TCP)
	if !ok {
		t.Fatal("no TCP layer")
	}
	if tcp.SrcPort != 8080 || tcp.DstPort != 443 || tcp.Seq != 1000 || tcp.Ack != 2000 {
		t.Errorf("TCP fields wrong: %+v", tcp)
	}
	if !tcp.SYN || !tcp.ACK || tcp.FIN || tcp.RST {
		t.Errorf("TCP flags wrong: %+v", tcp)
	}
	if tcp.PayloadLen != 0 {
		t.Errorf("PayloadLen = %d", tcp.PayloadLen)
	}
}

func TestDecodePayloadLenFromIPHeader(t *testing.T) {
	// Payload of 1448 recorded in IP length, but zero bytes materialised
	// (header-only capture).
	raw := TCPPacket(srcIP, dstIP, &TCP{SrcPort: 443, DstPort: 50000, ACK: true}, 1, 1448)
	p := Decode(CaptureInfo{}, raw)
	tcp := p.TransportLayer().(*TCP)
	if tcp.PayloadLen != 1448 {
		t.Errorf("PayloadLen = %d, want 1448", tcp.PayloadLen)
	}
}

func TestDecodeTruncated(t *testing.T) {
	raw := samplePacket(0, 0)
	for _, cut := range []int{0, 5, 13, 20, 33} {
		// Below Ethernet+IPv4 decoding stops before the network layer.
		p := Decode(CaptureInfo{}, raw[:cut])
		if p.NetworkLayer() != nil || p.TransportLayer() != nil {
			t.Errorf("cut=%d: decoded past the truncation", cut)
		}
		if (p.Layer(LayerTypeEthernet) != nil) != (cut >= 14) {
			t.Errorf("cut=%d: Ethernet layer present = %v", cut, cut >= 14)
		}
	}
	// A clean Ethernet+IPv4 but truncated TCP must keep the IP layer and
	// stop there.
	p := Decode(CaptureInfo{}, raw[:14+20+10])
	if p.Layer(LayerTypeIPv4) == nil {
		t.Error("IPv4 layer lost on TCP truncation")
	}
	if p.TransportLayer() != nil {
		t.Error("truncated TCP decoded")
	}
}

func TestDecodeUnknownEtherType(t *testing.T) {
	raw := samplePacket(0, 0)
	raw[12], raw[13] = 0x08, 0x06 // ARP
	p := Decode(CaptureInfo{}, raw)
	if p.NetworkLayer() != nil {
		t.Error("should have no network layer")
	}
	if p.Layer(LayerTypePayload) == nil {
		t.Error("trailing bytes should be payload")
	}
}

func TestDecodeBadIPVersion(t *testing.T) {
	raw := samplePacket(0, 0)
	raw[14] = 0x65 // version 6 in an IPv4 ethertype frame
	p := Decode(CaptureInfo{}, raw)
	if p.Layer(LayerTypeEthernet) == nil || p.NetworkLayer() != nil {
		t.Error("bad IP version: want decoding to stop after Ethernet")
	}
}

func TestIPChecksumValid(t *testing.T) {
	raw := samplePacket(99, 10)
	ip := raw[14 : 14+20]
	// Recompute including the stored checksum: must sum to 0xffff.
	var sum uint32
	for i := 0; i+1 < len(ip); i += 2 {
		sum += uint32(ip[i])<<8 | uint32(ip[i+1])
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	if sum != 0xffff {
		t.Errorf("IP checksum does not verify: %#x", sum)
	}
}

func TestFlowHelpers(t *testing.T) {
	raw := TCPPacket(srcIP, dstIP, &TCP{SrcPort: 443, DstPort: 50000, ACK: true}, 1, 0)
	p := Decode(CaptureInfo{}, raw)
	nf, ok := p.NetworkFlow()
	if !ok || nf.Src.Addr != srcIP || nf.Dst.Addr != dstIP {
		t.Errorf("NetworkFlow = %v ok=%v", nf, ok)
	}
	tf, ok := p.TransportFlow()
	if !ok || tf.Src.Port != 443 || tf.Dst.Port != 50000 {
		t.Errorf("TransportFlow = %v ok=%v", tf, ok)
	}
	if tf.Reverse().Src != tf.Dst || tf.Reverse().Dst != tf.Src {
		t.Error("Reverse broken")
	}
	if tf.Canonical() != tf.Reverse().Canonical() {
		t.Error("Canonical not direction-independent")
	}
	if tf.String() == "" || tf.Src.String() == "" {
		t.Error("String broken")
	}
	// Endpoint without port renders as bare address.
	if (Endpoint{Addr: srcIP}).String() != "10.0.0.1" {
		t.Errorf("bare endpoint = %q", Endpoint{Addr: srcIP}.String())
	}
}

func TestLayerTypeStrings(t *testing.T) {
	for _, lt := range []LayerType{LayerTypeEthernet, LayerTypeIPv4, LayerTypeIPv6, LayerTypeTCP, LayerTypeUDP, LayerTypePayload} {
		if lt.String() == "" {
			t.Errorf("LayerType %d has empty string", lt)
		}
	}
}

// Property: encode->decode round-trips TCP header fields.
func TestTCPRoundTripProperty(t *testing.T) {
	f := func(sp, dp uint16, seq, ack uint32, win uint16, flags byte, payload uint16) bool {
		in := &TCP{
			SrcPort: sp, DstPort: dp, Seq: seq, Ack: ack, Window: win,
			SYN: flags&1 != 0, ACK: flags&2 != 0, FIN: flags&4 != 0,
			RST: flags&8 != 0, PSH: flags&16 != 0, URG: flags&32 != 0,
		}
		pl := int(payload % 1449)
		raw := TCPPacket(srcIP, dstIP, in, 3, pl)
		p := Decode(CaptureInfo{}, raw)
		out, ok := p.TransportLayer().(*TCP)
		if !ok {
			return false
		}
		return out.SrcPort == in.SrcPort && out.DstPort == in.DstPort &&
			out.Seq == in.Seq && out.Ack == in.Ack && out.Window == in.Window &&
			out.SYN == in.SYN && out.ACK == in.ACK && out.FIN == in.FIN &&
			out.RST == in.RST && out.PSH == in.PSH && out.URG == in.URG &&
			out.PayloadLen == pl
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
