package speedchecker

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"github.com/clasp-measurement/clasp/internal/bgp"
	"github.com/clasp-measurement/clasp/internal/stats"
)

// referencePreliminary is RunPreliminary as it stood before the ingress
// decision and the static RTT were hoisted out of the sample loop: one
// PingRTT — route lookup, path geometry and all — per sample.
func referencePreliminary(p *Platform, params Params) []Aggregate {
	params = params.withDefaults()
	topo := p.sim.Topology()
	samples := make(map[TupleKey][]float64)
	for _, vp := range topo.EdgeVPs() {
		for _, region := range params.Regions {
			for _, tier := range []bgp.Tier{bgp.Premium, bgp.Standard} {
				key := TupleKey{City: vp.City, ASN: vp.ASN, Region: region, Tier: tier}
				for i := 0; i < params.SamplesPerVP; i++ {
					frac := float64(vp.ID*params.SamplesPerVP+i) / float64(len(topo.EdgeVPs())*params.SamplesPerVP+1)
					at := params.Start.Add(time.Duration(frac * float64(scanWindow)))
					salt := uint64(vp.ID)<<20 | uint64(i)<<8 | uint64(tier)
					rtt, err := p.sim.PingRTT(region, vp.ASN, vp.City, tier, at, salt)
					if err != nil {
						continue
					}
					samples[key] = append(samples[key], rtt)
				}
			}
		}
	}
	var out []Aggregate
	for key, xs := range samples {
		if len(xs) < params.MinSamples {
			continue
		}
		med, err := stats.Percentile(xs, 50)
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

// TestRunPreliminaryMatchesPerSampleReference: the hoist, the per-tuple
// Pinger, the skip of tuples too small to qualify and the fan-out over
// workers must leave every tuple, sample count and median bit-identical —
// the differential selection downstream thresholds those medians.
func TestRunPreliminaryMatchesPerSampleReference(t *testing.T) {
	_, p := setup(t)
	regions := []string{"europe-west1", "us-east1"}
	// At 5 samples per VP, MinSamples 5 keeps every tuple and MinSamples
	// 15 drops those with fewer than three VPs.
	want := map[int][]Aggregate{}
	for _, minSamples := range []int{5, 15} {
		want[minSamples] = referencePreliminary(p, Params{Regions: regions, SamplesPerVP: 5, MinSamples: minSamples})
	}
	if len(want[15]) == 0 || len(want[15]) >= len(want[5]) {
		t.Fatalf("MinSamples 15 keeps %d of %d aggregates: the skip is not exercised", len(want[15]), len(want[5]))
	}
	for _, minSamples := range []int{5, 15} {
		for _, par := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("min%d/parallelism%d", minSamples, par), func(t *testing.T) {
				got := p.RunPreliminary(Params{Regions: regions, SamplesPerVP: 5, MinSamples: minSamples, Parallelism: par})
				want := want[minSamples]
				if len(got) != len(want) {
					t.Fatalf("%d aggregates, reference has %d", len(got), len(want))
				}
				for i := range got {
					if got[i].Key != want[i].Key || got[i].Samples != want[i].Samples ||
						math.Float64bits(got[i].MedianMs) != math.Float64bits(want[i].MedianMs) {
						t.Fatalf("aggregate %d = %+v, reference %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}
