package pcap

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// LayerType identifies a protocol layer within a packet.
type LayerType int

// Supported layer types.
const (
	LayerTypeEthernet LayerType = iota
	LayerTypeIPv4
	LayerTypeIPv6
	LayerTypeTCP
	LayerTypeUDP
	LayerTypePayload
)

// String implements fmt.Stringer.
func (t LayerType) String() string {
	switch t {
	case LayerTypeEthernet:
		return "Ethernet"
	case LayerTypeIPv4:
		return "IPv4"
	case LayerTypeIPv6:
		return "IPv6"
	case LayerTypeTCP:
		return "TCP"
	case LayerTypeUDP:
		return "UDP"
	case LayerTypePayload:
		return "Payload"
	default:
		return fmt.Sprintf("LayerType(%d)", int(t))
	}
}

// Layer is one decoded protocol layer.
type Layer interface {
	LayerType() LayerType
}

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	SrcMAC, DstMAC [6]byte
	EtherType      uint16
}

// EtherType values.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeIPv6 = 0x86dd
)

// LayerType implements Layer.
func (e *Ethernet) LayerType() LayerType { return LayerTypeEthernet }

func (e *Ethernet) encode(b []byte) {
	copy(b[0:6], e.DstMAC[:])
	copy(b[6:12], e.SrcMAC[:])
	binary.BigEndian.PutUint16(b[12:14], e.EtherType)
}

// IPv4 is a decoded IPv4 header (options are not interpreted).
type IPv4 struct {
	TTL      uint8
	Protocol uint8
	ID       uint16
	SrcIP    netip.Addr
	DstIP    netip.Addr
	Length   uint16 // total length from the header
}

// IP protocol numbers.
const (
	ProtoTCP = 6
	ProtoUDP = 17
)

// LayerType implements Layer.
func (ip *IPv4) LayerType() LayerType { return LayerTypeIPv4 }

// IPv6 is a (minimal) decoded IPv6 fixed header.
type IPv6 struct {
	NextHeader uint8
	HopLimit   uint8
	SrcIP      netip.Addr
	DstIP      netip.Addr
	Length     uint16 // payload length
}

// LayerType implements Layer.
func (ip *IPv6) LayerType() LayerType { return LayerTypeIPv6 }

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	DataOffset       uint8 // header length in 32-bit words
	SYN, ACK, FIN    bool
	RST, PSH, URG    bool
	Window           uint16
	PayloadLen       int // bytes of data after the header within the IP packet
}

// LayerType implements Layer.
func (t *TCP) LayerType() LayerType { return LayerTypeTCP }

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
}

// LayerType implements Layer.
func (u *UDP) LayerType() LayerType { return LayerTypeUDP }

// Payload carries any undecoded trailing bytes.
type Payload []byte

// LayerType implements Layer.
func (p Payload) LayerType() LayerType { return LayerTypePayload }

// --- Serialisation ----------------------------------------------------------

// TCPPacket serialises an Ethernet/IPv4/TCP packet with payloadLen bytes of
// zero-filled application data (header captures carry no real payload, but
// the IP total length records the true size, exactly like a tcpdump -s 96
// capture).
//
// capPayload limits how many payload bytes are materialised; the IP header
// length field always reflects payloadLen.
func TCPPacket(src, dst netip.Addr, tcp *TCP, ipID uint16, ttl uint8, payloadLen, capPayload int) []byte {
	if capPayload > payloadLen {
		capPayload = payloadLen
	}
	const ethLen, ipLen, tcpLen = 14, 20, 20
	buf := make([]byte, ethLen+ipLen+tcpLen+capPayload)
	eth := Ethernet{EtherType: EtherTypeIPv4}
	eth.SrcMAC = [6]byte{2, 0, 0, 0, 0, 1}
	eth.DstMAC = [6]byte{2, 0, 0, 0, 0, 2}
	eth.encode(buf)

	ip := buf[ethLen:]
	ip[0] = 0x45 // version 4, IHL 5
	binary.BigEndian.PutUint16(ip[2:], uint16(ipLen+tcpLen+payloadLen))
	binary.BigEndian.PutUint16(ip[4:], ipID)
	ip[8] = ttl
	ip[9] = ProtoTCP
	s4 := src.As4()
	d4 := dst.As4()
	copy(ip[12:16], s4[:])
	copy(ip[16:20], d4[:])
	binary.BigEndian.PutUint16(ip[10:], ipChecksum(ip[:ipLen]))

	th := buf[ethLen+ipLen:]
	binary.BigEndian.PutUint16(th[0:], tcp.SrcPort)
	binary.BigEndian.PutUint16(th[2:], tcp.DstPort)
	binary.BigEndian.PutUint32(th[4:], tcp.Seq)
	binary.BigEndian.PutUint32(th[8:], tcp.Ack)
	th[12] = 5 << 4 // data offset 5 words
	var flags byte
	if tcp.FIN {
		flags |= 0x01
	}
	if tcp.SYN {
		flags |= 0x02
	}
	if tcp.RST {
		flags |= 0x04
	}
	if tcp.PSH {
		flags |= 0x08
	}
	if tcp.ACK {
		flags |= 0x10
	}
	if tcp.URG {
		flags |= 0x20
	}
	th[13] = flags
	binary.BigEndian.PutUint16(th[14:], tcp.Window)
	return buf
}

func ipChecksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum > 0xffff {
		sum = (sum & 0xffff) + (sum >> 16)
	}
	return ^uint16(sum)
}

// --- Decoding ---------------------------------------------------------------

// Packet is a decoded packet: an ordered list of layers plus convenience
// accessors in the gopacket style.
type Packet struct {
	layers []Layer
}

// Decode parses packet bytes starting at the Ethernet layer. Decoding stops
// at the first malformed layer; the layers before it remain accessible. The
// capture info stays with the caller; the packet does not retain it.
func Decode(_ CaptureInfo, data []byte) *Packet {
	p := &Packet{}
	if len(data) < 14 {
		return p
	}
	eth := &Ethernet{EtherType: binary.BigEndian.Uint16(data[12:14])}
	copy(eth.DstMAC[:], data[0:6])
	copy(eth.SrcMAC[:], data[6:12])
	p.layers = append(p.layers, eth)
	rest := data[14:]
	switch eth.EtherType {
	case EtherTypeIPv4:
		p.decodeIPv4(rest)
	case EtherTypeIPv6:
		p.decodeIPv6(rest)
	default:
		if len(rest) > 0 {
			p.layers = append(p.layers, Payload(rest))
		}
	}
	return p
}

func (p *Packet) decodeIPv4(data []byte) {
	if len(data) < 20 {
		return
	}
	ihl := int(data[0]&0x0f) * 4
	if data[0]>>4 != 4 || ihl < 20 || ihl > len(data) {
		return
	}
	ip := &IPv4{
		TTL:      data[8],
		Protocol: data[9],
		ID:       binary.BigEndian.Uint16(data[4:]),
		SrcIP:    netip.AddrFrom4([4]byte(data[12:16])),
		DstIP:    netip.AddrFrom4([4]byte(data[16:20])),
		Length:   binary.BigEndian.Uint16(data[2:]),
	}
	p.layers = append(p.layers, ip)
	p.decodeTransport(ip.Protocol, data[ihl:], int(ip.Length)-ihl)
}

func (p *Packet) decodeIPv6(data []byte) {
	if len(data) < 40 {
		return
	}
	ip := &IPv6{
		NextHeader: data[6],
		HopLimit:   data[7],
		SrcIP:      netip.AddrFrom16([16]byte(data[8:24])),
		DstIP:      netip.AddrFrom16([16]byte(data[24:40])),
		Length:     binary.BigEndian.Uint16(data[4:]),
	}
	p.layers = append(p.layers, ip)
	p.decodeTransport(ip.NextHeader, data[40:], int(ip.Length))
}

// decodeTransport parses the transport header. ipPayloadLen is the
// transport-layer length according to the IP header, which can exceed the
// captured bytes under a snaplen.
func (p *Packet) decodeTransport(proto uint8, data []byte, ipPayloadLen int) {
	switch proto {
	case ProtoTCP:
		if len(data) < 20 {
			return
		}
		off := int(data[12]>>4) * 4
		if off < 20 {
			return
		}
		flags := data[13]
		t := &TCP{
			SrcPort:    binary.BigEndian.Uint16(data[0:]),
			DstPort:    binary.BigEndian.Uint16(data[2:]),
			Seq:        binary.BigEndian.Uint32(data[4:]),
			Ack:        binary.BigEndian.Uint32(data[8:]),
			DataOffset: data[12] >> 4,
			FIN:        flags&0x01 != 0,
			SYN:        flags&0x02 != 0,
			RST:        flags&0x04 != 0,
			PSH:        flags&0x08 != 0,
			ACK:        flags&0x10 != 0,
			URG:        flags&0x20 != 0,
			Window:     binary.BigEndian.Uint16(data[14:]),
		}
		if ipPayloadLen >= off {
			t.PayloadLen = ipPayloadLen - off
		}
		p.layers = append(p.layers, t)
		if off < len(data) {
			p.layers = append(p.layers, Payload(data[off:]))
		}
	case ProtoUDP:
		if len(data) < 8 {
			return
		}
		u := &UDP{
			SrcPort: binary.BigEndian.Uint16(data[0:]),
			DstPort: binary.BigEndian.Uint16(data[2:]),
			Length:  binary.BigEndian.Uint16(data[4:]),
		}
		p.layers = append(p.layers, u)
		if len(data) > 8 {
			p.layers = append(p.layers, Payload(data[8:]))
		}
	default:
		if len(data) > 0 {
			p.layers = append(p.layers, Payload(data))
		}
	}
}

// Layer returns the first layer of the given type, or nil.
func (p *Packet) Layer(t LayerType) Layer {
	for _, l := range p.layers {
		if l.LayerType() == t {
			return l
		}
	}
	return nil
}

// NetworkLayer returns the IPv4 or IPv6 layer, or nil.
func (p *Packet) NetworkLayer() Layer {
	if l := p.Layer(LayerTypeIPv4); l != nil {
		return l
	}
	return p.Layer(LayerTypeIPv6)
}

// TransportLayer returns the TCP or UDP layer, or nil.
func (p *Packet) TransportLayer() Layer {
	if l := p.Layer(LayerTypeTCP); l != nil {
		return l
	}
	return p.Layer(LayerTypeUDP)
}
