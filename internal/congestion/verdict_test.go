package congestion

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// referenceDays is the partition's per-day V(s,d) records of qualifying
// days (at least MinDaySamples samples), ascending by day; nil when none
// qualifies.
func referenceDays(p *Partition) []Day {
	var out []Day
	for _, d := range p.days {
		if d.Samples >= MinDaySamples {
			out = append(out, d)
		}
	}
	return out
}

// referenceHourlyProbability is Fig. 6's probability per local hour from
// the event times: events in the hour over the series' samples in it, each
// instant put in its hour by time.Time.
func referenceHourlyProbability(s Series, events []time.Time, utcOffset int) [24]float64 {
	var meas, ev [24]int
	localHour := func(t time.Time) int {
		h := (t.Hour() + utcOffset) % 24
		if h < 0 {
			h += 24
		}
		return h
	}
	for _, smp := range s.Samples {
		meas[localHour(smp.T())]++
	}
	for _, e := range events {
		ev[localHour(e)]++
	}
	var out [24]float64
	for h := 0; h < 24; h++ {
		if meas[h] > 0 {
			out[h] = float64(ev[h]) / float64(meas[h])
		}
	}
	return out
}

// referenceCongestedPair is the Fig. 8 rule from the event times: more than
// 10 % of the measured days hold an event, the days found through a map.
func referenceCongestedPair(p *Partition, det *Detector) bool {
	days := referenceDays(p)
	if len(days) == 0 {
		return false
	}
	eventDays := make(map[int]bool)
	for _, e := range det.EventsIn(p) {
		eventDays[DayOf(e.UnixNano())] = true
	}
	return float64(len(eventDays))/float64(len(days)) > 0.1
}

// referenceVerdict derives every verdict tally from the day split and the
// event times, the way the report, Fig. 6, Fig. 8 and the headlines each
// did before the verdict existed.
func referenceVerdict(s Series, h float64) Verdict {
	det := &Detector{H: h}
	p := NewPartition(s)
	events := det.EventsIn(p)
	v := Verdict{H: h, Events: len(events)}
	for _, d := range referenceDays(p) {
		v.Days++
		v.Hours += d.Samples
		if d.V > h {
			v.CongestedDays++
		}
	}
	eventDays := make(map[int]bool)
	for _, e := range events {
		eventDays[DayOf(e.UnixNano())] = true
		v.HourEvents[e.Hour()]++
	}
	v.EventDays = len(eventDays)
	for _, smp := range s.Samples {
		v.HourSamples[smp.T().Hour()]++
	}
	return v
}

// peakHour is the report's modal local hour of a pair's events under a
// UTC offset (-1 without events), from per-UTC-hour event counts.
func peakHour(hourEvents [24]int, utcOffset int) int {
	var local [24]int
	for h, n := range hourEvents {
		local[((h+utcOffset)%24+24)%24] += n
	}
	peak, best := -1, 0
	for h, n := range local {
		if n > best {
			best, peak = n, h
		}
	}
	return peak
}

// offEpochSeries is hourly-ish samples from five days before the epoch to
// five days after, each instant moved off the hour by up to 59 minutes and
// some nanoseconds, with a deep evening dip on every other day.
func offEpochSeries(seed int64, shuffled bool) Series {
	rng := rand.New(rand.NewSource(seed))
	start := time.Date(1969, 12, 27, 0, 0, 0, 0, time.UTC)
	s := Series{PairID: "epoch-test"}
	for h := 0; h < 10*24; h++ {
		at := start.Add(time.Duration(h)*time.Hour + time.Duration(rng.Int63n(int64(time.Hour))))
		v := 100 + 300*rng.Float64()
		if (h/24)%2 == 0 && h%24 >= 18 {
			v *= 0.2
		}
		s.Samples = append(s.Samples, Sample{Unix: at.UnixNano(), Mbps: v})
	}
	if shuffled {
		rng.Shuffle(len(s.Samples), func(i, j int) { s.Samples[i], s.Samples[j] = s.Samples[j], s.Samples[i] })
	}
	return s
}

// TestVerdictMatchesEvents holds every verdict tally, and what the report,
// Fig. 6 and Fig. 8 read off it, to the event-time derivations: sorted and
// shuffled series with zero-peak days and days below MinDaySamples, and
// series around the epoch off the hour. It asks each partition for a
// second threshold and then for the first again, so a cache that answers
// the wrong threshold fails too.
func TestVerdictMatchesEvents(t *testing.T) {
	series := map[string]Series{
		"sorted":         randomSeries(31, 15, false),
		"shuffled":       randomSeries(32, 15, true),
		"epoch":          offEpochSeries(33, false),
		"epoch-shuffled": offEpochSeries(34, true),
		"empty":          {PairID: "empty"},
	}
	for name, s := range series {
		p := NewPartition(s)
		for _, h := range []float64{DefaultThreshold, 0.3, DefaultThreshold, 0} {
			label := fmt.Sprintf("%s h=%v", name, h)
			v := p.Verdict(h)
			want := referenceVerdict(s, h)
			if !reflect.DeepEqual(*v, want) {
				t.Fatalf("%s: verdict\n got %+v\nwant %+v", label, *v, want)
			}
			if name != "empty" && (want.Events == 0 || want.Days == 0) {
				t.Fatalf("%s: the reference found no events or no days to compare", label)
			}
			if p.Verdict(h) != v {
				t.Fatalf("%s: a second ask at the same threshold built a new verdict", label)
			}
			det := &Detector{H: h}
			events := det.EventsIn(p)
			for off := -12; off <= 14; off++ {
				if got, want := HourlyProbability(v, off), referenceHourlyProbability(s, events, off); got != want {
					t.Fatalf("%s offset %d: hourly probability\n got %v\nwant %v", label, off, got, want)
				}
				var byEvent [24]int
				for _, e := range events {
					byEvent[e.Hour()]++
				}
				if got, want := peakHour(v.HourEvents, off), peakHour(byEvent, off); got != want {
					t.Fatalf("%s offset %d: peak hour %d, want %d", label, off, got, want)
				}
			}
			if got, want := CongestedPairIn(p, det), referenceCongestedPair(p, det); got != want {
				t.Fatalf("%s: Fig. 8 rule %v, want %v", label, got, want)
			}
		}
	}
}

// TestHourOfDayFloors pins hourOfDay to time.Time.Hour on both sides of the
// epoch, on and off the hour.
func TestHourOfDayFloors(t *testing.T) {
	for _, ns := range []int64{
		0, 1, -1, int64(time.Hour) - 1, int64(time.Hour), -int64(time.Hour), -int64(time.Hour) - 1,
		nsPerDay - 1, -nsPerDay, -nsPerDay + 1, t0.UnixNano() + 13*int64(time.Hour) + 17,
	} {
		if got, want := hourOfDay(ns), time.Unix(0, ns).UTC().Hour(); got != want {
			t.Errorf("hourOfDay(%d) = %d, want %d", ns, got, want)
		}
	}
}
