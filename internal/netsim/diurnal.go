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

// clockOf reads the UTC clock off t's Unix seconds, with the seconds of
// the day floored as time.Time.Clock floors them; every caller passes a UTC
// time, so the two agree (TestClockOfMatchesTimeClock).
func clockOf(t time.Time) clock {
	u := t.Unix()
	sec := u % 86400
	if sec < 0 {
		sec += 86400
	}
	h, m := sec/3600, sec%3600/60
	return clock{day: uint64(u / 86400), hour: uint64(h), hm: float64(h) + float64(m)/60}
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

// dayDraw is the region-free half of an entity's day: every draw keyed by
// (seed, entity, day) and the profile. Only whether the day's event
// realises depends on the region, whose factor scales the event
// probability (regions differ, Fig. 2), so one dayDraw serves every region
// that probes the entity that day (depth).
type dayDraw struct {
	prefix    uint64  // the FNV prefix, for the event depth's draw
	u         float64 // the event draw
	dayProb   float64 // the profile's event probability before the region's factor
	peak      float64 // realised peak, local hour
	sigma     float64 // window width in hours
	offDepth  float64 // the depth on a day without an event
	peakDepth float64 // the profile's depth at a realised event
}

// drawDay draws an entity's day into d from prefix, the FNV prefix folded
// through (seed, entity, day): each of the day's draws is one more key off
// it.
func (s *Sim) drawDay(d *dayDraw, profile *topology.CongestionProfile, prefix uint64) {
	d.prefix = prefix
	d.u = uniformFrom(fnvMix(prefix, 0xd1))
	d.dayProb = s.cfg.CongestionDayProbBase
	if profile.Prone {
		d.dayProb = s.cfg.CongestionDayProbProne
	}
	// The realised peak drifts several hours day to day, so a server's
	// hour-of-day congestion probability stays moderate (Fig. 6 shows
	// probabilities mostly below 0.1-0.2 even for the worst servers).
	d.peak = float64(profile.PeakHourLocal) + rangeFrom(fnvMix(prefix, 0xd2), -5, 5)
	d.sigma = s.cfg.EveningSigmaHours
	if profile.Daytime {
		d.sigma = s.cfg.DaytimeSigmaHours
	}
	d.offDepth = profile.PeakDepth * s.cfg.OffDayDepthFactor
	d.peakDepth = profile.PeakDepth
}

// depth is the day's dip depth as a region with the given congestion
// factor sees it: does the entity realise a congestion event today, and if
// so how deep is it.
func (d *dayDraw) depth(regionFactor float64) float64 {
	if d.u < d.dayProb*regionFactor {
		return d.peakDepth * rangeFrom(fnvMix(d.prefix, 0xd3), 0.85, 1.1)
	}
	return d.offDepth
}

// dayDraws is an entity's dip for one day as one region sees it. The flow
// cache remembers the result per (flow, day); every other caller draws it
// per call.
func (s *Sim) dayDraws(profile *topology.CongestionProfile, prefix uint64, regionFactor float64) dipDay {
	var d dayDraw
	s.drawDay(&d, profile, prefix)
	return dipDay{peak: d.peak, depth: d.depth(regionFactor), sigma: d.sigma}
}

// dipFrom is the dip at a local hour of the day d was drawn for: the one
// body behind every congestion dip, with fresh or remembered day draws. A
// Pinger takes it apart, computing the shape once for every region.
func dipFrom(d dipDay, localHour float64) float64 {
	return clampDip(d.depth * dipShape(localHour, d.peak, d.sigma))
}

// clampDip bounds a dip to what a link can lose: nothing to 97 %.
func clampDip(dip float64) float64 {
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
	return dipFrom(s.dayDraws(&profile, fnvFold(s.cfg.Seed, entityKey, c.day), regionFactor), c.local(utcOffset))
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
