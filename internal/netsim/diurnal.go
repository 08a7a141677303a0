package netsim

import (
	"math"
	"time"

	"github.com/clasp-measurement/clasp/internal/topology"
)

// The diurnal load model. Access networks carry an evening traffic peak
// (the FCC's 7-11 pm window); congestion-prone networks realise a deep
// capacity dip on a fraction of days, centred near their profile's peak
// hour with some day-to-day drift. Daytime-pattern networks (the Cox case
// in §4.2) dip during working hours instead, over a wider window.

// dayOf returns a stable integer day index for hashing.
func dayOf(t time.Time) uint64 {
	return uint64(t.Unix() / 86400)
}

// clock is a timestamp decomposed once into what the models key on, so a
// test that asks for several dips and draws walks its time.Time once.
type clock struct {
	day  uint64  // dayOf
	hour uint64  // hour of day, the key of the per-test draws
	hm   float64 // fractional hour of day
}

func clockOf(t time.Time) clock {
	h, m, _ := t.Clock()
	return clock{day: dayOf(t), hour: uint64(h), hm: float64(h) + float64(m)/60}
}

// local converts the clock's (UTC) hour of day to fractional local hour for
// a UTC offset.
func (c clock) local(utcOffset int) float64 {
	h := c.hm + float64(utcOffset)
	for h < 0 {
		h += 24
	}
	for h >= 24 {
		h -= 24
	}
	return h
}

// circularDelta returns the shortest signed distance between two hours on
// the 24h circle.
func circularDelta(a, b float64) float64 {
	d := a - b
	for d > 12 {
		d -= 24
	}
	for d < -12 {
		d += 24
	}
	return d
}

// dipShape models the bell-shaped congestion window around the peak hour.
func dipShape(localHour, peakHour, sigma float64) float64 {
	d := circularDelta(localHour, peakHour)
	return math.Exp(-d * d / (2 * sigma * sigma))
}

// dipDay is everything about an entity's congestion dip that is drawn once
// per day: whether the event realises, where its peak drifts to and how
// deep it goes are hashes of (seed, entity, day), and the window's width is
// the profile's. Only the hour of day is left to dipFrom.
type dipDay struct {
	peak  float64 // realised peak, local hour
	depth float64 // fractional capacity reduction at the peak
	sigma float64 // window width in hours
}

// dayDraws draws an entity's dip for one day from prefix, the FNV prefix
// folded through (seed, entity, day): each of the day's draws is one more
// key off it. regionFactor scales the daily congestion probability (regions
// differ, Fig. 2). The flow cache remembers the result per (flow, day);
// every other caller draws it per call.
func (s *Sim) dayDraws(profile topology.CongestionProfile, prefix uint64, regionFactor float64) dipDay {
	// Does this entity realise a congestion event today?
	dayProb := s.cfg.CongestionDayProbBase
	if profile.Prone {
		dayProb = s.cfg.CongestionDayProbProne
	}
	dayProb *= regionFactor
	congestedToday := uniformFrom(fnvMix(prefix, 0xd1)) < dayProb

	// The realised peak drifts several hours day to day, so a server's
	// hour-of-day congestion probability stays moderate (Fig. 6 shows
	// probabilities mostly below 0.1-0.2 even for the worst servers).
	d := dipDay{
		peak:  float64(profile.PeakHourLocal) + rangeFrom(fnvMix(prefix, 0xd2), -5, 5),
		depth: profile.PeakDepth * s.cfg.OffDayDepthFactor,
		sigma: s.cfg.EveningSigmaHours,
	}
	if profile.Daytime {
		d.sigma = s.cfg.DaytimeSigmaHours
	}
	if congestedToday {
		d.depth = profile.PeakDepth * rangeFrom(fnvMix(prefix, 0xd3), 0.85, 1.1)
	}
	return d
}

// dipFrom is the dip at a local hour of the day d was drawn for: the one
// body behind every congestion dip, with fresh or remembered day draws.
func dipFrom(d dipDay, localHour float64) float64 {
	dip := d.depth * dipShape(localHour, d.peak, d.sigma)
	if dip < 0 {
		dip = 0
	}
	if dip > 0.97 {
		dip = 0.97
	}
	return dip
}

// congestionDip returns the fractional reduction in available bandwidth for
// an entity (keyed by entityKey) with the given profile, at UTC time t in a
// city with the given UTC offset.
func (s *Sim) congestionDip(profile topology.CongestionProfile, entityKey uint64, utcOffset int, t time.Time, regionFactor float64) float64 {
	c := clockOf(t)
	return dipFrom(s.dayDraws(profile, fnvFold(s.cfg.Seed, entityKey, c.day), regionFactor), c.local(utcOffset))
}

// congestionLoss returns the extra packet loss induced by a realised dip.
// Loss grows superlinearly as the dip deepens (queues overflow).
func congestionLoss(profile topology.CongestionProfile, dip float64) float64 {
	if profile.PeakDepth <= 0 {
		return 0
	}
	frac := dip / profile.PeakDepth // 0..~1.1 position within the event
	if frac < 0.5 {
		return 0
	}
	x := (frac - 0.5) / 0.5
	return profile.LossAtPeak * x * x
}
