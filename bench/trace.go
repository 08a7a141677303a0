package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed interval at a layer boundary. Start and End are
// offsets from the tracer's origin; Parent is the index of the span that
// was open when this one began (-1 for a root).
type span struct {
	ID       int           `json:"id"`
	Parent   int           `json:"parent"`
	Name     string        `json:"name"`
	Workload string        `json:"workload"`
	Start    time.Duration `json:"start_ns"`
	End      time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory. It is single-goroutine: the traced child
// runs at GOMAXPROCS=1 and opens spans only from the harness goroutine, so
// spans nest strictly and a stack of open spans gives the parent.
type tracer struct {
	workload string
	origin   time.Time
	spans    []span
	open     []int
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: time.Now()}
}

// do runs fn inside a span named name and returns the span's duration. A
// nil tracer only times fn.
func (t *tracer) do(name string, fn func() error) (time.Duration, error) {
	if t == nil {
		start := time.Now()
		err := fn()
		return time.Since(start), err
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload})
	t.open = append(t.open, id)
	t.spans[id].Start = time.Since(t.origin)
	err := fn()
	t.spans[id].End = time.Since(t.origin)
	t.open = t.open[:len(t.open)-1]
	return t.spans[id].dur(), err
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.dur()
		}
	}
	return d
}

// count returns how many spans carry the given name.
func (t *tracer) count(name string) int {
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered time.Duration
		edge := p.Start // everything before edge is already accounted for
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// spanRecord is one line of a trace-<workload>.jsonl file: the span and
// its self time.
type spanRecord struct {
	span
	Self time.Duration `json:"self_ns"`
}

// writeSpans writes one spanRecord per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := selfTimes(spans)
	for i, s := range spans {
		if err := enc.Encode(spanRecord{s, self[i]}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
