package topology

// Config controls synthetic Internet generation. The zero value is not
// useful; start from PaperScaleConfig and set Scale.
type Config struct {
	// Seed drives all randomness; equal seeds give identical topologies.
	Seed int64

	// Scale multiplies the entity counts below. 1.0 reproduces the
	// paper-scale Internet (~6k interdomain links per region, ~1.3k US
	// test servers); tests use smaller scales for speed.
	Scale float64

	// NumTransit is the number of procedurally generated transit ASes
	// (in addition to the anchor tier-1 carriers).
	NumTransit int
	// NumAccessUS / NumAccessIntl are the procedurally generated access
	// ISP counts (in addition to the named anchors).
	NumAccessUS   int
	NumAccessIntl int
	// NumHosting and NumEducation are generated hosting and university
	// AS counts.
	NumHosting   int
	NumEducation int

	// USServers is the target number of US speed test servers across the
	// three platforms (paper: ~1,329). IntlServers is the rest-of-world
	// server count used by the differential method's candidate pool.
	USServers   int
	IntlServers int

	// RegionVisibility is the fraction of global interconnects usable
	// from each region (egress availability differs per region, which is
	// why bdrmap discovers different link counts per region — Table 1).
	RegionVisibility map[string]float64

	// FarIPCloudSpaceFrac is the fraction of interconnect /30s allocated
	// from the cloud's address space, the case bdrmap's inference rules
	// must untangle.
	FarIPCloudSpaceFrac float64

	// CongestionProneFrac is the fraction of generated access ISPs whose
	// evening peak is deep enough to trip the V > 0.5 detector
	// (paper finding: 30-70 % of ISPs showed congestion evidence).
	CongestionProneFrac float64

	// NumEdgeVPs is the number of Speedchecker-style edge vantage points
	// (paper: >10,000 networks).
	NumEdgeVPs int
}

// PaperScaleConfig reproduces the structural scale of the paper's
// measurement campaign.
func PaperScaleConfig() Config {
	return Config{
		Seed:          1,
		Scale:         1.0,
		NumTransit:    70,
		NumAccessUS:   430,
		NumAccessIntl: 120,
		NumHosting:    200,
		NumEducation:  80,
		USServers:     1329,
		IntlServers:   700,
		RegionVisibility: map[string]float64{
			"us-west1":     0.86,
			"us-west2":     0.98,
			"us-west4":     0.94,
			"us-east1":     0.95,
			"us-east4":     0.85,
			"us-central1":  0.97,
			"europe-west1": 0.90,
		},
		FarIPCloudSpaceFrac: 0.3,
		CongestionProneFrac: 0.5,
		NumEdgeVPs:          10000,
	}
}

// scaled applies the Scale factor to a count, keeping at least min.
func (c Config) scaled(n, min int) int {
	v := int(float64(n) * c.Scale)
	if v < min {
		v = min
	}
	return v
}

// Regions returns the cloud regions the paper deployed in (Appendix A).
func Regions() []Region {
	mk := func(name, city string) Region {
		return Region{
			Name:  name,
			City:  city,
			Zones: []string{name + "-a", name + "-b", name + "-c"},
		}
	}
	return []Region{
		mk("us-west1", "The Dalles"),
		mk("us-west2", "Los Angeles"),
		mk("us-west4", "Las Vegas"),
		mk("us-east1", "Moncks Corner"),
		mk("us-east4", "Ashburn"),
		mk("us-central1", "Council Bluffs"),
		mk("europe-west1", "St. Ghislain"),
	}
}
