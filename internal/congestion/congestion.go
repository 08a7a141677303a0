// Package congestion implements CLASP's throughput-variability congestion
// detection (§3.3):
//
//   - the normalised peak-to-trough daily difference
//     V(s,d) = (Tmax(s,d) - Tmin(s,d)) / Tmax(s,d),
//   - the normalised intra-day hourly difference
//     VH(s,t) = (Tmax(s,d) - T(s,t)) / Tmax(s,d),
//   - the elbow method over the congested-fraction-vs-threshold curve that
//     justified H = 0.5,
//   - congestion-event extraction and hourly congestion probability in the
//     test server's local time (Fig. 6).
package congestion

import (
	"fmt"
	"time"

	"github.com/clasp-measurement/clasp/internal/stats"
)

// DefaultThreshold is the paper's chosen variability threshold H.
const DefaultThreshold = 0.5

// MinDaySamples is the fewest samples a day needs to be labelled: a
// half-covered day can fake a low V.
const MinDaySamples = 4

// Sample is one hourly throughput observation for a VM-server pair. It
// holds its instant as Unix nanoseconds, not a time.Time: 16 bytes and no
// pointer, so a grouping's series buffer is half the size and the garbage
// collector never scans it (pinned by TestSampleIsPointerFree).
type Sample struct {
	Unix int64 // Unix ns
	Mbps float64
}

// T returns the sample's instant in UTC.
func (s Sample) T() time.Time { return time.Unix(0, s.Unix).UTC() }

// Series is the hourly history of one VM-server pair, in time order.
type Series struct {
	PairID  string // e.g. "us-west1/ookla-123"
	Samples []Sample
}

// nsPerDay is the length of a UTC day in nanoseconds.
const nsPerDay = int64(24 * time.Hour)

// DayOf returns the UTC day, counted from the Unix epoch, that the instant
// unixNs (Unix nanoseconds) falls in. It floors, so an instant before the
// epoch lands in a negative day, never in day 0 with 1970-01-01.
func DayOf(unixNs int64) int {
	d := unixNs / nsPerDay
	if unixNs%nsPerDay < 0 {
		d--
	}
	return int(d)
}

// hourOfDay returns the UTC hour of day of the instant unixNs (Unix
// nanoseconds), flooring before the epoch as time.Time.Hour does.
func hourOfDay(unixNs int64) int {
	ns := unixNs % nsPerDay
	if ns < 0 {
		ns += nsPerDay
	}
	return int(ns / int64(time.Hour))
}

// Day is the per-day summary of one pair.
type Day struct {
	Day        int // days since the Unix epoch
	Tmax, Tmin float64
	V          float64 // (Tmax - Tmin) / Tmax
	Samples    int
}

// Detector labels days and hours against a threshold H.
type Detector struct {
	H float64
}

// NewDetector creates a detector with the paper's defaults.
func NewDetector() *Detector { return &Detector{H: DefaultThreshold} }

// Events returns the times of the congested hours of the series: samples
// whose normalised intra-day difference VH(s,t) exceeds H.
func (d *Detector) Events(s Series) []time.Time {
	return d.EventsIn(NewPartition(s))
}

// SweepPoint is one point of the threshold sweep in Fig. 2.
type SweepPoint struct {
	H        float64
	Fraction float64
}

// ElbowThreshold locates the knee of a sweep with the maximum-distance-to-
// chord method, returning the H at the elbow.
func ElbowThreshold(sweep []SweepPoint) (float64, error) {
	if len(sweep) < 3 {
		return 0, fmt.Errorf("congestion: sweep too short for elbow detection")
	}
	xs := make([]float64, len(sweep))
	ys := make([]float64, len(sweep))
	for i, p := range sweep {
		xs[i] = p.H
		ys[i] = p.Fraction
	}
	idx, err := stats.Elbow(xs, ys)
	if err != nil {
		return 0, fmt.Errorf("congestion: %w", err)
	}
	return sweep[idx].H, nil
}

// HourlyProbability computes the congestion probability per local
// hour-of-day from a verdict: events in that hour divided by measurements
// in that hour. utcOffset converts the verdict's UTC hours to the test
// server's local time, aligning with user activity as Fig. 6 does.
func HourlyProbability(v *Verdict, utcOffset int) [24]float64 {
	var meas, ev [24]int
	for h := 0; h < 24; h++ {
		local := (h + utcOffset) % 24
		if local < 0 {
			local += 24
		}
		meas[local] += v.HourSamples[h]
		ev[local] += v.HourEvents[h]
	}
	var out [24]float64
	for h := 0; h < 24; h++ {
		if meas[h] > 0 {
			out[h] = float64(ev[h]) / float64(meas[h])
		}
	}
	return out
}

// CongestedPairIn reports whether a pair qualifies as "congested" under the
// Fig. 8 rule: more than 10 % of its measured days contain at least one
// congestion event.
func CongestedPairIn(p *Partition, det *Detector) bool {
	v := p.Verdict(det.H)
	return v.Days > 0 && float64(v.EventDays)/float64(v.Days) > 0.1
}
