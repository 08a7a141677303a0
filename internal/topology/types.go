// Package topology builds the synthetic Internet CLASP measures: an AS-level
// graph with business relationships, geographic footprints, a cloud provider
// with regions and thousands of interconnections (interdomain links), speed
// test servers hosted across the edge, and edge vantage points.
//
// The real study ran against the Internet and Google Cloud Platform; this
// package is the offline substitute. It preserves the structural properties
// the paper's methodology depends on: ~6k interdomain links visible per
// cloud region, heavy sharing of interconnects among test servers
// (75-92 %), diverse server business types, and named anchor ISPs (Cox,
// Comcast, Cogent, ...) whose congestion behaviour the paper describes.
package topology

import (
	"fmt"
	"net/netip"

	"github.com/clasp-measurement/clasp/internal/geo"
	"github.com/clasp-measurement/clasp/internal/pfx2as"
)

// ASN aliases the pfx2as AS number type for convenience.
type ASN = pfx2as.ASN

// ASType classifies an autonomous system's business role.
type ASType int

// AS business roles.
const (
	TypeTier1     ASType = iota // settlement-free backbone carrier
	TypeTransit                 // regional/national transit provider
	TypeAccess                  // eyeball/access ISP
	TypeHosting                 // web hosting / datacentre operator
	TypeEducation               // university or research network
	TypeCloud                   // the measured cloud provider
)

// String implements fmt.Stringer.
func (t ASType) String() string {
	switch t {
	case TypeTier1:
		return "tier1"
	case TypeTransit:
		return "transit"
	case TypeAccess:
		return "access"
	case TypeHosting:
		return "hosting"
	case TypeEducation:
		return "education"
	case TypeCloud:
		return "cloud"
	default:
		return fmt.Sprintf("ASType(%d)", int(t))
	}
}

// BusinessType mirrors the ipinfo.io company categories used in Fig. 8.
type BusinessType int

// Business categories for speed test server networks.
const (
	BizISP BusinessType = iota
	BizHosting
	BizBusiness
	BizEducation
	BizUnknown
)

// String implements fmt.Stringer.
func (b BusinessType) String() string {
	switch b {
	case BizISP:
		return "ISP"
	case BizHosting:
		return "Hosting"
	case BizBusiness:
		return "Business"
	case BizEducation:
		return "Education"
	default:
		return "Unknown"
	}
}

// CongestionProfile describes the diurnal load behaviour of an AS's access
// infrastructure and its interconnects. The network simulator turns this
// into time-varying available bandwidth, queueing delay and loss.
type CongestionProfile struct {
	// Prone marks the network as congestion-prone: its peak-hour dip is
	// deep enough to trip CLASP's V > 0.5 detector on some days.
	Prone bool
	// PeakHourLocal is the centre of the evening peak in local time
	// (FCC defines peak as 7-11 pm; typical centre 21).
	PeakHourLocal int
	// PeakDepth is the fractional reduction of available bandwidth at the
	// centre of the peak (0 = flat, 0.9 = severe evening congestion).
	PeakDepth float64
	// Daytime shifts congestion into working hours (the Cox pattern in
	// §4.2: high congestion frequency during the daytime).
	Daytime bool
	// LossAtPeak is the packet loss rate at the centre of the peak on a
	// congested day (e.g. Cox reverse-path loss reached >50 %).
	LossAtPeak float64
}

// AS is one autonomous system.
type AS struct {
	ASN     ASN
	Name    string
	Type    ASType
	Country string       // home country code
	Cities  []string     // PoP cities (names in the geo DB)
	Prefix  netip.Prefix // primary address block
	// Business is the ipinfo-style category of networks inside this AS.
	Business BusinessType
	// Congestion describes this AS's access-network behaviour.
	Congestion CongestionProfile
}

// RelKind is the business relationship on an AS-level edge (a, b).
type RelKind int

// Relationship kinds.
const (
	RelC2P RelKind = iota // a is a customer of b
	RelP2P                // a and b are settlement-free peers
)

// RouterID identifies a border router (for alias resolution).
type RouterID int

// Interconnect is one interdomain link between the cloud AS and a neighbor.
// bdrmap identifies these by the far-side interface IP.
type Interconnect struct {
	ID       int
	Neighbor ASN        // neighbor AS on the far side
	City     string     // colocation facility city
	NearIP   netip.Addr // cloud-side interface
	FarIP    netip.Addr // neighbor-side interface (bdrmap's identifier)
	// FarRouter groups interconnects that terminate on the same physical
	// neighbor router; alias resolution recovers this grouping.
	FarRouter RouterID
	// FarIPFromCloudSpace records that the /30 linking subnet was
	// allocated from the cloud's address space, so a naive prefix-to-AS
	// lookup of FarIP returns the cloud AS instead of the neighbor. This
	// is the case bdrmap's inference rules exist to handle.
	FarIPFromCloudSpace bool
	// CapacityMbps is the provisioned capacity of the interconnect.
	CapacityMbps float64
	// Headroom is the typical bandwidth (Mbps) available to one new flow
	// at off-peak hours, reflecting the background load from other
	// tenants and services sharing the port.
	Headroom float64
	// Lossy marks a chronically lossy interconnect (the premium-tier
	// pathology of §4.1: eight targets saw >10 % average loss).
	Lossy bool
	// LossRate is the average loss rate when Lossy.
	LossRate float64
	// Coord/CoordOK/UTCOffset intern the facility city's geo record so the
	// routing and simulation hot paths need no per-call name lookup.
	// CoordOK is false when City is absent from the geo DB.
	Coord     geo.Coord
	CoordOK   bool
	UTCOffset int
}

// Platform identifies a speed test platform.
type Platform int

// Speed test platforms used by CLASP.
const (
	PlatformOokla Platform = iota
	PlatformMLab
	PlatformComcast
)

// String implements fmt.Stringer.
func (p Platform) String() string {
	switch p {
	case PlatformOokla:
		return "ookla"
	case PlatformMLab:
		return "mlab"
	case PlatformComcast:
		return "comcast"
	default:
		return fmt.Sprintf("Platform(%d)", int(p))
	}
}

// Server is a speed test server deployed somewhere on the synthetic
// Internet.
type Server struct {
	ID       int
	Platform Platform
	Host     string // DNS-style identifier
	ASN      ASN
	City     string
	Country  string
	IP       netip.Addr
	// AccessMbps is the server's access link capacity (Ookla requires
	// at least 1 Gbps).
	AccessMbps float64
	// Lat/Lon duplicate the city coordinates for the Fig. 7 maps.
	Lat, Lon float64
	// UTCOffset interns the city's UTC offset for the diurnal model.
	UTCOffset int
}

// Region is one cloud region.
type Region struct {
	Name  string // e.g. "us-west1"
	City  string // host city in the geo DB
	Zones []string
}

// EdgeVP is a Speedchecker-style edge vantage point used for the
// differential method's preliminary latency scan.
type EdgeVP struct {
	ID   int
	ASN  ASN
	City string
}
