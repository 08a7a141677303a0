package netsim

import (
	"fmt"
	"net/netip"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/geo"
)

// Hop is one router interface on a forward path, as a traceroute probe
// would reveal it.
type Hop struct {
	IP    netip.Addr
	RTTms float64
}

// ForwardPath constructs the hop-level forward path from a region VM to a
// destination address, as revealed by TTL-limited probing. dst selects the
// routing: engineered probe targets pin their interconnect; other addresses
// follow the tier policy toward (asn, city).
//
// flowID provides paris-traceroute semantics: hops are stable for a fixed
// flowID; classic traceroute (varying flow IDs) can oscillate between
// intra-AS parallel paths.
func (s *Sim) ForwardPath(region string, dstIP netip.Addr, dstASN ASN, dstCity string, linkID int, tier bgp.Tier, flowID uint64) ([]Hop, error) {
	var choice bgp.EgressChoice
	var err error
	if linkID >= 0 {
		choice, err = s.router.EgressForProbe(region, &bgp.ProbeDest{ASN: dstASN, City: dstCity, LinkID: linkID})
	} else {
		choice, err = s.router.EgressLink(region, dstASN, dstCity, tier)
	}
	if err != nil {
		return nil, err
	}
	reg, ok := s.topo.Region(region)
	if !ok {
		return nil, fmt.Errorf("netsim: unknown region %q", region)
	}
	regCoord, _ := s.topo.CityCoord(reg.City)
	linkCoord, ok := s.topo.CityCoord(choice.Link.City)
	if !ok {
		linkCoord = regCoord
	}
	dstCoord, ok := s.topo.CityCoord(dstCity)
	if !ok {
		dstCoord = linkCoord
	}

	// Four cloud and border hops, at most one core router per AS after
	// the cloud's, and the destination.
	hops := make([]Hop, 0, 4+len(choice.Path))
	add := func(ip netip.Addr, rtt float64) {
		hops = append(hops, Hop{IP: ip, RTTms: rtt})
	}

	// Intra-cloud hops: first-hop gateway and a backbone router. The
	// backbone router is chosen per flow ID among parallel LAG members,
	// which is what paris-traceroute keeps stable.
	gw := cloudRouterIP(1, uint64(s.regionHash(region))%250)
	add(gw, 0.3)
	lag := flowID % 4
	bb := cloudRouterIP(2, uint64(s.regionHash(region))%60*4+lag)
	wanMs := geo.RTTMs(regCoord, linkCoord) * 0.82
	add(bb, 0.6+wanMs*0.5)

	// The cloud border router answers with its inbound (WAN-facing)
	// interface; the /30 interconnect interface on the near side never
	// appears in a forward traceroute.
	add(cloudRouterIP(3, uint64(choice.Link.ID)), 1.0+wanMs)
	// Far side: the neighbor's border router replies with the
	// interconnect interface. This is what bdrmap must identify.
	add(choice.Link.FarIP, 1.3+wanMs)

	// Intra-neighbor and onward AS hops toward the destination.
	path := choice.Path
	// path[0] = cloud, path[1] = neighbor, ..., path[len-1] = dst AS.
	remaining := geo.RTTMs(linkCoord, dstCoord)
	cum := 1.6 + wanMs
	nHops := len(path) - 1
	if nHops == 0 {
		nHops = 1
	}
	step := remaining / float64(nHops+1)
	for i := 1; i < len(path); i++ {
		asn := path[i]
		a := s.topo.AS(asn)
		if a == nil {
			continue
		}
		cum += step
		if i > 1 || len(path) == 2 {
			// A core router inside this AS. Addresses come from the
			// .0.130-249 band, which never collides with border-router
			// loopbacks (.0.1+), servers (.16+) or link subnets (.254+).
			rid := (uint64(asn) + flowID%2) % 120
			b := a.Prefix.Addr().As4()
			add(netip.AddrFrom4([4]byte{b[0], b[1], 0, byte(130 + rid)}), cum)
		}
	}
	// Destination itself.
	cum += step
	add(dstIP, cum)
	return hops, nil
}

// VMAddr returns the address of a region's measurement VM, inside the
// cloud's announced 15.0.0.0/10.
func (s *Sim) VMAddr(region string) netip.Addr {
	rk := s.regionHash(region) % 40
	return netip.AddrFrom4([4]byte{15, byte(10 + rk), 0, 10})
}

func cloudRouterIP(tier byte, n uint64) netip.Addr {
	return netip.AddrFrom4([4]byte{15, tier, byte(n / 250), byte(n%250 + 1)})
}
