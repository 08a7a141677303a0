package topology

import (
	"fmt"
	"math"
	"math/rand"
	"net/netip"
	"sort"

	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/pfx2as"
)

// Topology is the generated synthetic Internet. It is immutable after New.
type Topology struct {
	Cfg     Config
	Geo     *geo.DB
	Cloud   *AS
	Regions []Region

	ases   map[ASN]*AS
	asList []*AS // stable generation order

	providers map[ASN][]ASN
	customers map[ASN][]ASN
	peers     map[ASN][]ASN

	links           []*Interconnect
	linksByNeighbor map[ASN][]*Interconnect
	linkByID        map[int]*Interconnect
	visible         map[string]map[int]bool // region name -> set of link IDs
	visibleDense    map[string][]bool       // region name -> link-ID-indexed set
	probeAddr       map[int]netip.Addr      // link ID -> probe target

	regionByName map[string]Region

	servers    []*Server
	serverByID map[int]*Server

	edgeVPs []EdgeVP

	routers     map[RouterID][]netip.Addr // far router -> alias interface IPs
	routerOfIP  map[netip.Addr]RouterID
	nextRouter  RouterID
	prefixTable *pfx2as.Table
}

// New generates a topology from cfg. Identical configs generate identical
// topologies.
func New(cfg Config) (*Topology, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("topology: scale must be positive, got %v", cfg.Scale)
	}
	t := &Topology{
		Cfg:             cfg,
		Geo:             geo.DefaultDB(),
		Regions:         Regions(),
		ases:            make(map[ASN]*AS),
		providers:       make(map[ASN][]ASN),
		customers:       make(map[ASN][]ASN),
		peers:           make(map[ASN][]ASN),
		linksByNeighbor: make(map[ASN][]*Interconnect),
		linkByID:        make(map[int]*Interconnect),
		visible:         make(map[string]map[int]bool),
		regionByName:    make(map[string]Region),
		probeAddr:       make(map[int]netip.Addr),
		serverByID:      make(map[int]*Server),
		routers:         make(map[RouterID][]netip.Addr),
		routerOfIP:      make(map[netip.Addr]RouterID),
		prefixTable:     pfx2as.New(),
	}
	for _, r := range t.Regions {
		t.regionByName[r.Name] = r
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t.buildASes(rng)
	t.buildRelationships(rng)
	t.buildInterconnects(rng)
	t.buildServers(rng)
	t.buildEdgeVPs(rng)
	t.buildPrefixTable()
	// Dense visibility sets: link IDs are contiguous, so a region's usable
	// subset flattens to one bool slice and IsVisible is two array reads.
	t.visibleDense = make(map[string][]bool, len(t.visible))
	for name, set := range t.visible {
		dense := make([]bool, len(t.links))
		for id := range set {
			dense[id] = true
		}
		t.visibleDense[name] = dense
	}
	return t, nil
}

// --- AS construction -------------------------------------------------------

// asPrefix allocates the /16 of the index-th created AS.
func asPrefix(index int) netip.Prefix {
	a := byte(20 + index/200)
	b := byte(index % 200)
	return netip.PrefixFrom(netip.AddrFrom4([4]byte{a, b, 0, 0}), 16)
}

// cloudPrefix is the cloud provider's address block.
var cloudPrefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{15, 0, 0, 0}), 8)

func (t *Topology) addAS(a *AS) *AS {
	t.ases[a.ASN] = a
	t.asList = append(t.asList, a)
	return a
}

func (t *Topology) buildASes(rng *rand.Rand) {
	cfg := t.Cfg
	usCities := t.Geo.InCountry("US")
	usNames := make([]string, len(usCities))
	for i, c := range usCities {
		usNames[i] = c.Name
	}
	intlCities := []geo.City{}
	for _, c := range t.Geo.All() {
		if c.Country != "US" {
			intlCities = append(intlCities, c)
		}
	}

	// Cloud provider.
	t.Cloud = t.addAS(&AS{
		ASN: cloudASN, Name: "GCP", Type: TypeCloud, Country: "US",
		Cities: regionCities(), Prefix: cloudPrefix, Business: BizBusiness,
	})

	nextIdx := 0
	take := func() int { i := nextIdx; nextIdx++; return i }

	fromSpec := func(s anchorSpec, cities []string) *AS {
		return t.addAS(&AS{
			ASN: s.asn, Name: s.name, Type: s.typ, Country: s.country,
			Cities: cities, Prefix: asPrefix(take()), Business: s.biz,
			Congestion: s.congestion,
		})
	}

	// Tier-1 anchors get broad PoP footprints across the big metros plus
	// international hubs.
	for _, s := range tier1Anchors {
		n := 40
		if n > len(usNames) {
			n = len(usNames)
		}
		cities := sampleStrings(rng, usNames, n)
		cities = append(cities, intlHubCities...)
		fromSpec(s, dedupe(cities))
	}
	for _, s := range accessAnchors {
		fromSpec(s, s.cities)
	}
	for _, s := range intlAnchors {
		fromSpec(s, s.cities)
	}

	genCongestion := func(rng *rand.Rand) CongestionProfile {
		p := CongestionProfile{PeakHourLocal: 20 + rng.Intn(3)}
		if rng.Float64() < cfg.CongestionProneFrac {
			p.Prone = true
			p.PeakDepth = 0.55 + rng.Float64()*0.3
			p.LossAtPeak = 0.03 + rng.Float64()*0.12
		} else {
			p.PeakDepth = 0.08 + rng.Float64()*0.34
		}
		return p
	}

	// Transit providers.
	for i := 0; i < cfg.scaled(cfg.NumTransit, 6); i++ {
		n := 5 + rng.Intn(11)
		t.addAS(&AS{
			ASN: ASN(4200000000 + uint32(nextIdx)), Name: fmt.Sprintf("Transit-%d", i),
			Type: TypeTransit, Country: "US",
			Cities: sampleStrings(rng, usNames, n), Prefix: asPrefix(take()),
			Business:   BizISP,
			Congestion: CongestionProfile{PeakHourLocal: 21, PeakDepth: 0.1 + rng.Float64()*0.2},
		})
	}
	// US access ISPs.
	for i := 0; i < cfg.scaled(cfg.NumAccessUS, 20); i++ {
		n := 1 + rng.Intn(8)
		t.addAS(&AS{
			ASN: ASN(4200000000 + uint32(nextIdx)), Name: fmt.Sprintf("AccessUS-%d", i),
			Type: TypeAccess, Country: "US",
			Cities: sampleStrings(rng, usNames, n), Prefix: asPrefix(take()),
			Business:   BizISP,
			Congestion: genCongestion(rng),
		})
	}
	// International access ISPs: cluster each in one country.
	for i := 0; i < cfg.scaled(cfg.NumAccessIntl, 8); i++ {
		home := intlCities[rng.Intn(len(intlCities))]
		var cities []string
		for _, c := range t.Geo.InCountry(home.Country) {
			cities = append(cities, c.Name)
			if len(cities) >= 1+rng.Intn(4) {
				break
			}
		}
		t.addAS(&AS{
			ASN: ASN(4200000000 + uint32(nextIdx)), Name: fmt.Sprintf("AccessIntl-%d", i),
			Type: TypeAccess, Country: home.Country,
			Cities: cities, Prefix: asPrefix(take()),
			Business:   BizISP,
			Congestion: genCongestion(rng),
		})
	}
	// Hosting companies at hub metros.
	for i := 0; i < cfg.scaled(cfg.NumHosting, 10); i++ {
		n := 1 + rng.Intn(2)
		t.addAS(&AS{
			ASN: ASN(4200000000 + uint32(nextIdx)), Name: fmt.Sprintf("Hosting-%d", i),
			Type: TypeHosting, Country: "US",
			Cities: sampleStrings(rng, hubCities, n), Prefix: asPrefix(take()),
			Business:   BizHosting,
			Congestion: CongestionProfile{PeakHourLocal: 15, PeakDepth: 0.05 + rng.Float64()*0.15},
		})
	}
	// Education networks.
	for i := 0; i < cfg.scaled(cfg.NumEducation, 4); i++ {
		t.addAS(&AS{
			ASN: ASN(4200000000 + uint32(nextIdx)), Name: fmt.Sprintf("Edu-%d", i),
			Type: TypeEducation, Country: "US",
			Cities: sampleStrings(rng, usNames, 1), Prefix: asPrefix(take()),
			Business:   BizEducation,
			Congestion: CongestionProfile{Daytime: true, PeakHourLocal: 14, PeakDepth: 0.1 + rng.Float64()*0.25},
		})
	}
}

func regionCities() []string {
	var out []string
	for _, r := range Regions() {
		out = append(out, r.City)
	}
	return out
}

// --- Relationships ---------------------------------------------------------

func (t *Topology) addEdge(a, b ASN, rel RelKind) {
	// Skip duplicates.
	if rel == RelP2P {
		for _, p := range t.peers[a] {
			if p == b {
				return
			}
		}
		t.peers[a] = append(t.peers[a], b)
		t.peers[b] = append(t.peers[b], a)
	} else {
		for _, p := range t.providers[a] {
			if p == b {
				return
			}
		}
		t.providers[a] = append(t.providers[a], b)
		t.customers[b] = append(t.customers[b], a)
	}
}

func (t *Topology) byType(typ ASType) []*AS {
	var out []*AS
	for _, a := range t.asList {
		if a.Type == typ {
			out = append(out, a)
		}
	}
	return out
}

func (t *Topology) buildRelationships(rng *rand.Rand) {
	tier1s := t.byType(TypeTier1)
	transits := t.byType(TypeTransit)

	// Tier-1 full mesh peering.
	for i := range tier1s {
		for j := i + 1; j < len(tier1s); j++ {
			t.addEdge(tier1s[i].ASN, tier1s[j].ASN, RelP2P)
		}
	}
	pickAS := func(pool []*AS) *AS { return pool[rng.Intn(len(pool))] }

	// Transit: customer of two tier-1s, peer of two other transits.
	for _, tr := range transits {
		t.addEdge(tr.ASN, pickAS(tier1s).ASN, RelC2P)
		t.addEdge(tr.ASN, pickAS(tier1s).ASN, RelC2P)
		if len(transits) > 1 {
			for k := 0; k < 2; k++ {
				o := pickAS(transits)
				if o.ASN != tr.ASN {
					t.addEdge(tr.ASN, o.ASN, RelP2P)
				}
			}
		}
	}
	// Access: big ISPs buy from tier-1s, small ones from transits.
	for _, a := range t.byType(TypeAccess) {
		big := len(a.Cities) >= 5 || isAnchor(a.ASN)
		if big {
			t.addEdge(a.ASN, pickAS(tier1s).ASN, RelC2P)
			if rng.Float64() < 0.6 {
				t.addEdge(a.ASN, pickAS(tier1s).ASN, RelC2P)
			}
		} else {
			// Small ISPs cluster behind the popular transit providers,
			// which is why most test servers share interconnections with
			// their upstreams (75.5-91.6%, Table 1 discussion).
			popular := transits
			if len(popular) > 15 {
				popular = popular[:15]
			}
			t.addEdge(a.ASN, pickAS(popular).ASN, RelC2P)
			if rng.Float64() < 0.5 {
				t.addEdge(a.ASN, pickAS(popular).ASN, RelC2P)
			}
		}
	}
	// Hosting: mixed upstreams.
	for _, h := range t.byType(TypeHosting) {
		if rng.Float64() < 0.4 {
			t.addEdge(h.ASN, pickAS(tier1s).ASN, RelC2P)
		} else {
			t.addEdge(h.ASN, pickAS(transits).ASN, RelC2P)
		}
		if rng.Float64() < 0.3 {
			t.addEdge(h.ASN, pickAS(transits).ASN, RelC2P)
		}
	}
	// Education: single transit upstream.
	for _, e := range t.byType(TypeEducation) {
		t.addEdge(e.ASN, pickAS(transits).ASN, RelC2P)
	}
}

func isAnchor(asn ASN) bool {
	for _, s := range accessAnchors {
		if s.asn == asn {
			return true
		}
	}
	for _, s := range intlAnchors {
		if s.asn == asn {
			return true
		}
	}
	return false
}

func anchorDirectPeer(asn ASN) bool {
	for _, s := range accessAnchors {
		if s.asn == asn {
			return s.directPeer
		}
	}
	for _, s := range intlAnchors {
		if s.asn == asn {
			return s.directPeer
		}
	}
	return false
}

// --- Interconnects ---------------------------------------------------------

func (t *Topology) buildInterconnects(rng *rand.Rand) {
	cfg := t.Cfg
	// Decide the cloud's direct neighbors.
	var neighbors []*AS
	for _, a := range t.asList {
		switch a.Type {
		case TypeCloud:
			continue
		case TypeTier1:
			neighbors = append(neighbors, a)
		case TypeTransit:
			// Not every transit provider peers with the cloud; traffic
			// for the rest rides the tier-1s, concentrating server-bound
			// paths onto fewer interconnects (Table 1's 111-325 links).
			if rng.Float64() < 0.6 {
				neighbors = append(neighbors, a)
			}
		case TypeAccess:
			switch {
			case anchorDirectPeer(a.ASN):
				neighbors = append(neighbors, a)
			case isAnchor(a.ASN):
				// named but not forced to peer
			case a.Country != "US" && rng.Float64() < 0.5:
				neighbors = append(neighbors, a)
			case len(a.Cities) >= 4 && rng.Float64() < 0.35:
				neighbors = append(neighbors, a)
			case rng.Float64() < 0.08:
				neighbors = append(neighbors, a)
			}
		case TypeHosting:
			if rng.Float64() < 0.15 {
				neighbors = append(neighbors, a)
			}
		case TypeEducation:
			if rng.Float64() < 0.2 {
				neighbors = append(neighbors, a)
			}
		}
	}

	linkCount := func(a *AS) int {
		switch a.Type {
		case TypeTier1:
			return 60 + rng.Intn(41)
		case TypeTransit:
			return 45 + rng.Intn(46)
		case TypeAccess:
			return 8 + rng.Intn(21)
		default:
			return 1 + rng.Intn(3)
		}
	}

	// Per-neighbor link multiplicity shrinks with the square root of the
	// scale so that small test topologies keep multi-link neighbors.
	linkScale := math.Sqrt(cfg.Scale)
	if linkScale > 1 {
		linkScale = 1
	}
	nextLinkID := 0
	for _, nb := range neighbors {
		// Peering edge in the AS graph.
		t.addEdge(t.Cloud.ASN, nb.ASN, RelP2P)
		n := linkCount(nb)
		n = int(float64(n)*linkScale + 0.5)
		if n < 1 {
			n = 1
		}
		if n > 120 {
			n = 120
		}
		hubs := hubCities
		if nb.Country != "US" {
			hubs = intlHubCities
		}
		// Each neighbor interconnects mostly at a handful of "home" hub
		// facilities (private interconnects cluster at a few colos).
		// This concentrates server-bound egress onto few links per
		// neighbor, giving Table 1's 111-325 server-traversed links.
		nHome := 2 + rng.Intn(3)
		if nHome > len(hubs) {
			nHome = len(hubs)
		}
		homeHubs := sampleStrings(rng, hubs, nHome)
		var prevRouter RouterID = -1
		var prevCity string
		for i := 0; i < n; i++ {
			var city string
			if rng.Float64() < 0.85 || len(nb.Cities) == 0 {
				city = homeHubs[rng.Intn(len(homeHubs))]
			} else {
				city = nb.Cities[rng.Intn(len(nb.Cities))]
			}
			link := &Interconnect{
				ID:       nextLinkID,
				Neighbor: nb.ASN,
				City:     city,
			}
			if c, ok := t.Geo.Lookup(city); ok {
				link.Coord = c.Coord()
				link.CoordOK = true
				link.UTCOffset = c.UTCOffset
			}
			nextLinkID++
			idx := len(t.linksByNeighbor[nb.ASN])
			t.allocLinkIPs(rng, link, nb, idx)
			// Same-city consecutive links of a neighbor sometimes
			// terminate on the same far router (alias sets).
			if city == prevCity && prevRouter >= 0 && rng.Float64() < 0.5 {
				link.FarRouter = prevRouter
				t.routers[prevRouter] = append(t.routers[prevRouter], link.FarIP)
				t.routerOfIP[link.FarIP] = prevRouter
			} else {
				rid := t.nextRouter
				t.nextRouter++
				link.FarRouter = rid
				// Router loopback plus this interface.
				loop := addrInPrefix(nb.Prefix, 0, byte(idx+1))
				t.routers[rid] = []netip.Addr{loop, link.FarIP}
				t.routerOfIP[loop] = rid
				t.routerOfIP[link.FarIP] = rid
			}
			prevRouter, prevCity = link.FarRouter, city

			// Capacity and typical headroom for one new flow.
			link.CapacityMbps = []float64{10000, 20000, 40000, 100000}[rng.Intn(4)]
			link.Headroom = 200 + rng.Float64()*500 // 200-700 Mbps off-peak
			t.links = append(t.links, link)
			t.linkByID[link.ID] = link
			t.linksByNeighbor[nb.ASN] = append(t.linksByNeighbor[nb.ASN], link)

			// Probe target for pilot scans: an address in a /24 of
			// neighbor customer-cone space engineered through this link.
			t.probeAddr[link.ID] = addrInPrefix(nb.Prefix, byte(128+idx%126), 1)
		}
	}

	// Mark chronically lossy interconnects: a handful of premium-tier
	// egress ports (§4.1 found eight differential targets behind >10 %
	// average loss).
	for _, l := range t.links {
		if rng.Float64() < 0.04 {
			l.Lossy = true
			l.LossRate = 0.05 + rng.Float64()*0.12
		}
	}

	// Region visibility: sample each region's usable link subset, but
	// guarantee each neighbor keeps at least one visible link per region.
	for _, r := range t.Regions {
		frac, ok := cfg.RegionVisibility[r.Name]
		if !ok {
			frac = 0.85
		}
		set := make(map[int]bool)
		seen := make(map[ASN]bool)
		for _, l := range t.links {
			if rng.Float64() < frac {
				set[l.ID] = true
				seen[l.Neighbor] = true
			}
		}
		for nb, ls := range t.linksByNeighbor {
			if !seen[nb] && len(ls) > 0 {
				set[ls[0].ID] = true
			}
		}
		t.visible[r.Name] = set
	}
}

// allocLinkIPs assigns the /30 interface addresses of a link. A fraction of
// links are numbered from the cloud's space (so a prefix-to-AS lookup of the
// far IP misleadingly returns the cloud).
func (t *Topology) allocLinkIPs(rng *rand.Rand, link *Interconnect, nb *AS, idx int) {
	if rng.Float64() < t.Cfg.FarIPCloudSpaceFrac {
		link.FarIPFromCloudSpace = true
		// 15.240.0.0/12 region of cloud space, 4 addresses per link.
		base := uint32(15)<<24 | uint32(240)<<16 | uint32(link.ID*4)
		link.NearIP = addrFromU32(base + 1)
		link.FarIP = addrFromU32(base + 2)
	} else {
		// Top /23 of the neighbor's /16: x.y.254.0 - x.y.255.255.
		off := idx * 4 % 512
		third := byte(254 + off/256)
		fourth := byte(off % 256)
		link.FarIP = addrInPrefix(nb.Prefix, third, fourth+1)
		link.NearIP = addrInPrefix(nb.Prefix, third, fourth+2)
	}
}

func addrFromU32(v uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// addrInPrefix returns prefixBase.third.fourth inside a /16.
func addrInPrefix(p netip.Prefix, third, fourth byte) netip.Addr {
	b := p.Addr().As4()
	return netip.AddrFrom4([4]byte{b[0], b[1], third, fourth})
}

// --- Servers ---------------------------------------------------------------

// anchorServerSpec forces particular named servers to exist (the paper
// discusses them individually).
type anchorServerSpec struct {
	asn      ASN
	city     string
	platform Platform
	host     string
}

var anchorServers = []anchorServerSpec{
	{22773, "Las Vegas", PlatformOokla, "speedtest.lv.cox.net"},
	{22773, "San Diego", PlatformOokla, "speedtest.sd.cox.net"},
	{22773, "Henderson", PlatformOokla, "speedtest.hend.cox.net"},
	{19108, "Lubbock", PlatformOokla, "speedtest.lbk.suddenlink.net"},
	{33548, "Fresno", PlatformOokla, "speedtest.fresno.unwired.net"},
	{46276, "Grass Valley", PlatformOokla, "speedtest.smarterbroadband.net"},
	{174, "Dallas", PlatformOokla, "speedtest.axigent.net"},
	{174, "Chicago", PlatformOokla, "speedtest.fdcservers.net"},
	{7922, "Philadelphia", PlatformComcast, "xfinity.phl.comcast.net"},
	{7922, "Denver", PlatformComcast, "xfinity.den.comcast.net"},
	{7922, "Chicago", PlatformMLab, "ndt.chi.measurement-lab.org"},
	{1221, "Sydney", PlatformOokla, "speedtest.syd.telstra.net"},
	{1221, "Melbourne", PlatformOokla, "speedtest.mel.telstra.net"},
	{136334, "Mumbai", PlatformOokla, "speedtest.vortexnetsol.in"},
	{45194, "Mumbai", PlatformOokla, "speedtest.mum.joister.in"},
	{45194, "Delhi", PlatformOokla, "speedtest.del.joister.in"},
}

func (t *Topology) buildServers(rng *rand.Rand) {
	nextID := 0
	nextHostIP := make(map[ASN]int)
	add := func(a *AS, city string, platform Platform, host string) *Server {
		c, ok := t.Geo.Lookup(city)
		if !ok {
			return nil
		}
		n := nextHostIP[a.ASN]
		nextHostIP[a.ASN] = n + 1
		// Server IPs live in the .16-.127 third-octet band.
		ip := addrInPrefix(a.Prefix, byte(16+(n/250)%112), byte(n%250+1))
		if host == "" {
			host = fmt.Sprintf("st%d.%s.example.net", nextID, platform)
		}
		s := &Server{
			ID: nextID, Platform: platform, Host: host,
			ASN: a.ASN, City: city, Country: c.Country, IP: ip,
			AccessMbps: 1000, Lat: c.Lat, Lon: c.Lon, UTCOffset: c.UTCOffset,
		}
		if rng.Float64() < 0.2 {
			s.AccessMbps = 10000
		}
		nextID++
		t.servers = append(t.servers, s)
		t.serverByID[s.ID] = s
		return s
	}

	for _, sp := range anchorServers {
		if a, ok := t.ases[sp.asn]; ok {
			add(a, sp.city, sp.platform, sp.host)
		}
	}

	// Weighted AS pool for procedural US servers: hosting companies and
	// access ISPs dominate; some education and a few carrier-hosted.
	var pool []*AS
	var weights []float64
	for _, a := range t.asList {
		var w float64
		switch a.Type {
		case TypeHosting:
			w = 2.6
		case TypeAccess:
			if a.Country == "US" {
				w = 0.9 * float64(1+len(a.Cities))
			}
		case TypeEducation:
			w = 1.4
		case TypeTransit:
			w = 0.35
		case TypeTier1:
			w = 0.3
		}
		if w > 0 && len(a.Cities) > 0 {
			pool = append(pool, a)
			weights = append(weights, w)
		}
	}
	pickWeighted := func() *AS {
		total := 0.0
		for _, w := range weights {
			total += w
		}
		r := rng.Float64() * total
		for i, w := range weights {
			r -= w
			if r <= 0 {
				return pool[i]
			}
		}
		return pool[len(pool)-1]
	}
	platformFor := func(r float64) Platform {
		switch {
		case r < 0.65:
			return PlatformOokla
		case r < 0.85:
			return PlatformComcast
		default:
			return PlatformMLab
		}
	}

	usTarget := t.Cfg.scaled(t.Cfg.USServers, 40)
	for len(t.servers) < usTarget {
		a := pickWeighted()
		city := a.Cities[rng.Intn(len(a.Cities))]
		add(a, city, platformFor(rng.Float64()), "")
	}

	// International servers (differential-method candidate pool).
	var intlPool []*AS
	for _, a := range t.asList {
		if a.Type == TypeAccess && a.Country != "US" && len(a.Cities) > 0 {
			intlPool = append(intlPool, a)
		}
	}
	intlTarget := t.Cfg.scaled(t.Cfg.IntlServers, 20)
	for i := 0; i < intlTarget && len(intlPool) > 0; i++ {
		a := intlPool[rng.Intn(len(intlPool))]
		city := a.Cities[rng.Intn(len(a.Cities))]
		add(a, city, platformFor(rng.Float64()), "")
	}
}

func (t *Topology) buildEdgeVPs(rng *rand.Rand) {
	var pool []*AS
	for _, a := range t.asList {
		if a.Type == TypeAccess && len(a.Cities) > 0 {
			pool = append(pool, a)
		}
	}
	if len(pool) == 0 {
		return
	}
	n := t.Cfg.scaled(t.Cfg.NumEdgeVPs, 200)
	for i := 0; i < n; i++ {
		a := pool[rng.Intn(len(pool))]
		city := a.Cities[rng.Intn(len(a.Cities))]
		rng.Intn(250) // one more draw per VP: every later VP's AS and city come from this stream
		t.edgeVPs = append(t.edgeVPs, EdgeVP{ID: i, ASN: a.ASN, City: city})
	}
}

func (t *Topology) buildPrefixTable() {
	for _, a := range t.asList {
		p := a.Prefix
		if a.Type == TypeCloud {
			// The cloud announces its service/infrastructure space
			// (15.0.0.0/10) but, as on the real Internet, interconnect
			// /30s carved from 15.240.0.0/12 stay unannounced — the case
			// bdrmap's next-hop heuristic exists for.
			p = netip.PrefixFrom(p.Addr(), 10)
		}
		// Errors impossible: generated prefixes and origins are valid.
		t.prefixTable.Insert(p, pfx2as.Origin{a.ASN})
	}
}

// --- Accessors ---------------------------------------------------------------

// AS returns the AS with the given number, or nil.
func (t *Topology) AS(asn ASN) *AS { return t.ases[asn] }

// ASes returns all ASes in generation order (cloud first).
func (t *Topology) ASes() []*AS { return t.asList }

// Providers returns the AS's transit providers.
func (t *Topology) Providers(asn ASN) []ASN { return t.providers[asn] }

// Customers returns the AS's customers.
func (t *Topology) Customers(asn ASN) []ASN { return t.customers[asn] }

// Peers returns the AS's settlement-free peers.
func (t *Topology) Peers(asn ASN) []ASN { return t.peers[asn] }

// Links returns every interconnect of the cloud.
func (t *Topology) Links() []*Interconnect { return t.links }

// Link returns the interconnect with the given ID, or nil.
func (t *Topology) Link(id int) *Interconnect { return t.linkByID[id] }

// LinksOf returns the cloud's interconnects with a particular neighbor, in
// ID order.
func (t *Topology) LinksOf(neighbor ASN) []*Interconnect {
	return t.linksByNeighbor[neighbor]
}

// CloudNeighbors returns the ASes directly interconnected with the cloud,
// sorted by ASN.
func (t *Topology) CloudNeighbors() []ASN {
	out := make([]ASN, 0, len(t.linksByNeighbor))
	for asn := range t.linksByNeighbor {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IsVisible reports whether a link is usable from a region.
func (t *Topology) IsVisible(region string, linkID int) bool {
	dense := t.visibleDense[region]
	return linkID >= 0 && linkID < len(dense) && dense[linkID]
}

// VisibleLinks returns the interconnects usable from a region, in ID order.
func (t *Topology) VisibleLinks(region string) []*Interconnect {
	set := t.visible[region]
	out := make([]*Interconnect, 0, len(set))
	for _, l := range t.links {
		if set[l.ID] {
			out = append(out, l)
		}
	}
	return out
}

// ProbeTarget returns the pilot-scan probe address engineered through a
// link (an address in the neighbor's customer cone routed via that link).
func (t *Topology) ProbeTarget(linkID int) (netip.Addr, bool) {
	a, ok := t.probeAddr[linkID]
	return a, ok
}

// Servers returns every speed test server.
func (t *Topology) Servers() []*Server { return t.servers }

// Server returns the server with the given ID, or nil.
func (t *Topology) Server(id int) *Server { return t.serverByID[id] }

// USServers returns the servers in the US, the paper's measurement targets.
func (t *Topology) USServers() []*Server {
	var out []*Server
	for _, s := range t.servers {
		if s.Country == "US" {
			out = append(out, s)
		}
	}
	return out
}

// EdgeVPs returns the Speedchecker-style vantage points.
func (t *Topology) EdgeVPs() []EdgeVP { return t.edgeVPs }

// PrefixTable returns the prefix-to-AS table for the generated Internet.
// Link /30 subnets are deliberately absent (or, for cloud-numbered links,
// resolve to the cloud), as on the real Internet.
func (t *Topology) PrefixTable() *pfx2as.Table { return t.prefixTable }

// RouterAliases returns the interface IPs of a far-side border router.
func (t *Topology) RouterAliases(r RouterID) []netip.Addr { return t.routers[r] }

// RouterOf returns the router owning an interface IP, or -1.
func (t *Topology) RouterOf(ip netip.Addr) RouterID {
	if r, ok := t.routerOfIP[ip]; ok {
		return r
	}
	return -1
}

// Region returns the region with the given name.
func (t *Topology) Region(name string) (Region, bool) {
	r, ok := t.regionByName[name]
	return r, ok
}

// CityCoord returns the coordinates of a city in the embedded geo DB.
func (t *Topology) CityCoord(name string) (geo.Coord, bool) {
	c, ok := t.Geo.Lookup(name)
	if !ok {
		return geo.Coord{}, false
	}
	return c.Coord(), true
}

// CityOf returns the full city record for a name.
func (t *Topology) CityOf(name string) (geo.City, bool) { return t.Geo.Lookup(name) }

// --- small helpers -----------------------------------------------------------

func sampleStrings(rng *rand.Rand, pool []string, n int) []string {
	if n >= len(pool) {
		out := make([]string, len(pool))
		copy(out, pool)
		return out
	}
	idx := rng.Perm(len(pool))[:n]
	out := make([]string, n)
	for i, j := range idx {
		out[i] = pool[j]
	}
	return out
}

func dedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
