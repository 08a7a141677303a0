package pcap

import (
	"fmt"
	"net/netip"
)

// Endpoint is a hashable representation of one side of a flow: an address
// and, for transport flows, a port. Endpoints are comparable and usable as
// map keys (the gopacket Flow/Endpoint idiom).
type Endpoint struct {
	Addr netip.Addr
	Port uint16
}

// String implements fmt.Stringer.
func (e Endpoint) String() string {
	if e.Port == 0 {
		return e.Addr.String()
	}
	return fmt.Sprintf("%s:%d", e.Addr, e.Port)
}

// Flow is an ordered (src, dst) pair of endpoints.
type Flow struct {
	Src, Dst Endpoint
}

// Reverse returns the flow with the endpoints swapped.
func (f Flow) Reverse() Flow { return Flow{Src: f.Dst, Dst: f.Src} }

// String implements fmt.Stringer.
func (f Flow) String() string { return f.Src.String() + "->" + f.Dst.String() }

// Canonical returns a direction-independent representative of the flow (the
// lexicographically smaller orientation), so that both directions of a TCP
// connection map to one key.
func (f Flow) Canonical() Flow {
	if f.Src.Addr.Compare(f.Dst.Addr) < 0 {
		return f
	}
	if f.Src.Addr == f.Dst.Addr && f.Src.Port <= f.Dst.Port {
		return f
	}
	return f.Reverse()
}

// NetworkFlow extracts the IP-level flow of a packet, or ok=false when it
// has no network layer.
func (p *Packet) NetworkFlow() (Flow, bool) {
	switch l := p.NetworkLayer().(type) {
	case *IPv4:
		return Flow{Endpoint{Addr: l.SrcIP}, Endpoint{Addr: l.DstIP}}, true
	case *IPv6:
		return Flow{Endpoint{Addr: l.SrcIP}, Endpoint{Addr: l.DstIP}}, true
	}
	return Flow{}, false
}

// TransportFlow extracts the 4-tuple flow of a packet, or ok=false when it
// has no transport layer.
func (p *Packet) TransportFlow() (Flow, bool) {
	nf, ok := p.NetworkFlow()
	if !ok {
		return Flow{}, false
	}
	switch l := p.TransportLayer().(type) {
	case *TCP:
		nf.Src.Port, nf.Dst.Port = l.SrcPort, l.DstPort
		return nf, true
	case *UDP:
		nf.Src.Port, nf.Dst.Port = l.SrcPort, l.DstPort
		return nf, true
	}
	return Flow{}, false
}
