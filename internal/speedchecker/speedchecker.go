// Package speedchecker emulates the Speedchecker edge measurement platform
// the paper used for the differential method's preliminary scan (§3.1):
// vantage points in thousands of access networks ping the cloud regions
// over both network tiers; results are aggregated into medians per
// ⟨city, AS, region, tier⟩ tuple, keeping only tuples with enough samples.
package speedchecker

import (
	"sort"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/netsim"
	"github.com/clasp-measurement/clasp/internal/stats"
	"github.com/clasp-measurement/clasp/internal/topology"
)

// TupleKey identifies one aggregate: where the VPs are, which region they
// probed, and over which tier.
type TupleKey struct {
	City   string
	ASN    topology.ASN
	Region string
	Tier   bgp.Tier
}

// Aggregate is the median latency for one tuple.
type Aggregate struct {
	Key      TupleKey
	MedianMs float64
	Samples  int
}

// Params tunes the preliminary scan.
type Params struct {
	// Regions to probe; nil probes every region.
	Regions []string
	// SamplesPerVP is how many probes each vantage point issues per
	// (region, tier) over the scan window (default 20).
	SamplesPerVP int
	// MinSamples is the minimum tuple size to report (the paper used
	// 100; tests lower it).
	MinSamples int
	// Start and Window position the probes in virtual time.
	Start  time.Time
	Window time.Duration
}

func (p Params) withDefaults() Params {
	if p.SamplesPerVP <= 0 {
		p.SamplesPerVP = 20
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 100
	}
	if p.Window <= 0 {
		p.Window = 14 * 24 * time.Hour
	}
	if p.Start.IsZero() {
		p.Start = time.Date(2020, 4, 1, 0, 0, 0, 0, time.UTC)
	}
	return p
}

// Platform runs the emulated Speedchecker scan.
type Platform struct {
	sim *netsim.Sim
}

// New creates a platform over the simulator.
func New(sim *netsim.Sim) *Platform { return &Platform{sim: sim} }

// RunPreliminary probes every edge VP against the requested regions over
// both tiers and returns the qualifying tuple aggregates, sorted by key.
func (p *Platform) RunPreliminary(params Params) []Aggregate {
	params = params.withDefaults()
	topo := p.sim.Topology()
	regions := params.Regions
	if regions == nil {
		for _, r := range topo.Regions {
			regions = append(regions, r.Name)
		}
	}

	samples := make(map[TupleKey][]float64)
	for _, vp := range topo.EdgeVPs() {
		for _, region := range regions {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				// The ingress decision and the static RTT depend only on
				// (VP, region, tier); every sample shares them.
				ping, err := p.sim.Pinger(region, vp.ASN, vp.City, tier)
				if err != nil {
					continue
				}
				key := TupleKey{City: vp.City, ASN: vp.ASN, Region: region, Tier: tier}
				xs := samples[key]
				for i := 0; i < params.SamplesPerVP; i++ {
					frac := float64(vp.ID*params.SamplesPerVP+i) / float64(len(topo.EdgeVPs())*params.SamplesPerVP+1)
					at := params.Start.Add(time.Duration(frac * float64(params.Window)))
					salt := uint64(vp.ID)<<20 | uint64(i)<<8 | uint64(tier)
					xs = append(xs, ping.RTT(at, salt))
				}
				samples[key] = xs
			}
		}
	}

	var out []Aggregate
	for key, xs := range samples {
		if len(xs) < params.MinSamples {
			continue
		}
		med, err := stats.Median(xs)
		if err != nil {
			continue
		}
		out = append(out, Aggregate{Key: key, MedianMs: med, Samples: len(xs)})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.Region != b.Region {
			return a.Region < b.Region
		}
		if a.ASN != b.ASN {
			return a.ASN < b.ASN
		}
		if a.City != b.City {
			return a.City < b.City
		}
		return a.Tier < b.Tier
	})
	return out
}

// TierDelta is the per-⟨city, AS, region⟩ difference between standard and
// premium tier medians.
type TierDelta struct {
	City     string
	ASN      topology.ASN
	Region   string
	DeltaMs  float64 // standard - premium (positive: premium is faster)
	PremMs   float64
	StdMs    float64
	MinCount int // smaller of the two tuple sample counts
}

// Deltas pairs premium/standard aggregates into per-location deltas.
func Deltas(aggs []Aggregate) []TierDelta {
	type lk struct {
		city   string
		asn    topology.ASN
		region string
	}
	prem := make(map[lk]Aggregate)
	std := make(map[lk]Aggregate)
	for _, a := range aggs {
		k := lk{a.Key.City, a.Key.ASN, a.Key.Region}
		if a.Key.Tier == bgp.Premium {
			prem[k] = a
		} else {
			std[k] = a
		}
	}
	var out []TierDelta
	for k, p := range prem {
		s, ok := std[k]
		if !ok {
			continue
		}
		min := p.Samples
		if s.Samples < min {
			min = s.Samples
		}
		out = append(out, TierDelta{
			City: k.city, ASN: k.asn, Region: k.region,
			DeltaMs: s.MedianMs - p.MedianMs,
			PremMs:  p.MedianMs, StdMs: s.MedianMs,
			MinCount: min,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Region != out[j].Region {
			return out[i].Region < out[j].Region
		}
		if out[i].ASN != out[j].ASN {
			return out[i].ASN < out[j].ASN
		}
		return out[i].City < out[j].City
	})
	return out
}
