// Package speedchecker emulates the Speedchecker edge measurement platform
// the paper used for the differential method's preliminary scan (§3.1):
// vantage points in thousands of access networks ping the cloud regions
// over both network tiers; results are aggregated into medians per
// ⟨city, AS, region, tier⟩ tuple, keeping only tuples with enough samples.
package speedchecker

import (
	"sort"
	"sync"
	"time"

	"github.com/clasp-measurement/clasp/internal/analysis"
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
	// Start positions the probes in virtual time; they spread over the
	// two-week scan window from there.
	Start time.Time
	// Parallelism is how many (tuple, region, tier) jobs run at once; 0
	// or 1 scans inline. The aggregates are identical at any value.
	Parallelism int
}

// scanWindow is the virtual-time span the preliminary scan's probes cover.
const scanWindow = 14 * 24 * time.Hour

func (p Params) withDefaults() Params {
	if p.SamplesPerVP <= 0 {
		p.SamplesPerVP = 20
	}
	if p.MinSamples <= 0 {
		p.MinSamples = 100
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
//
// The scan runs one job per (⟨city, AS⟩ tuple, region, tier) on
// params.Parallelism workers. The route and the static RTT are a function
// of exactly that key, so a job resolves one Pinger for all of the tuple's
// VPs; a tuple whose VPs cannot reach MinSamples between them is never
// probed.
func (p *Platform) RunPreliminary(params Params) []Aggregate {
	params = params.withDefaults()
	topo := p.sim.Topology()
	regions := params.Regions
	if regions == nil {
		for _, r := range topo.Regions {
			regions = append(regions, r.Name)
		}
	}

	vps := topo.EdgeVPs()
	var tuples []vpTuple
	index := make(map[location]int)
	for _, vp := range vps {
		k := location{city: vp.City, asn: vp.ASN}
		i, ok := index[k]
		if !ok {
			i = len(tuples)
			index[k] = i
			tuples = append(tuples, vpTuple{location: k})
		}
		tuples[i].ids = append(tuples[i].ids, vp.ID)
	}
	kept := tuples[:0]
	for _, t := range tuples {
		if len(t.ids)*params.SamplesPerVP >= params.MinSamples {
			kept = append(kept, t)
		}
	}

	tiers := [...]bgp.Tier{bgp.Premium, bgp.Standard}
	perTuple := len(regions) * len(tiers)
	spread := float64(len(vps)*params.SamplesPerVP + 1)
	aggs := make([]Aggregate, len(kept)*perTuple)
	analysis.ParallelFor(params.Parallelism, len(aggs), func(u int) {
		t := &kept[u/perTuple]
		region, tier := regions[u%perTuple/len(tiers)], tiers[u%len(tiers)]
		ping, err := p.sim.Pinger(region, t.asn, t.city, tier)
		if err != nil {
			return
		}
		buf := sampleBufs.Get().(*[]float64)
		xs := (*buf)[:0]
		for _, id := range t.ids {
			for i := 0; i < params.SamplesPerVP; i++ {
				frac := float64(id*params.SamplesPerVP+i) / spread
				at := params.Start.Add(time.Duration(frac * float64(scanWindow)))
				salt := uint64(id)<<20 | uint64(i)<<8 | uint64(tier)
				xs = append(xs, ping.RTT(at, salt))
			}
		}
		// Only the median survives, so the buffer may be reordered.
		if med, err := stats.PercentileInPlace(xs, 50); err == nil {
			key := TupleKey{City: t.city, ASN: t.asn, Region: region, Tier: tier}
			aggs[u] = Aggregate{Key: key, MedianMs: med, Samples: len(xs)}
		}
		*buf = xs
		sampleBufs.Put(buf)
	})

	out := aggs[:0]
	for _, a := range aggs {
		if a.Samples > 0 {
			out = append(out, a)
		}
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

// location is a ⟨city, AS⟩ tuple; vpTuple adds the IDs of its edge VPs,
// in EdgeVPs order.
type location struct {
	city string
	asn  topology.ASN
}

type vpTuple struct {
	location
	ids []int
}

// sampleBufs recycles the scan's sample buffers: one is live per worker.
var sampleBufs = sync.Pool{New: func() any { return new([]float64) }}

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
