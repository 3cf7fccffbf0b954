package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of the benchmark's own tracing: spans of one
// request share Request, and Parent is the index of the span that caused
// this one (-1 for a request root). Start and End are offsets from the
// tracer's epoch.
type span struct {
	Name       string
	Request    int
	Parent     int
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. It records around the
// benchmark's calls into each layer; the program under test is not
// instrumented by it.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records a span and returns its index, for use as a child's Parent.
func (t *tracer) add(name string, request, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Request: request, Parent: parent,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return len(t.spans) - 1
}

// around records a span around fn, which gets the span's index so that
// the calls it makes can be recorded as children.
func (t *tracer) around(name string, request, parent int, fn func(self int)) {
	start := time.Now()
	self := t.add(name, request, parent, start, start)
	fn(self)
	end := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[self].End = end
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (overlapping children are counted once).
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, upTo := time.Duration(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upTo), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// stageTotals sums self time by span name within each request, so a stage
// called N times per request (a denoise step) contributes its N calls.
func stageTotals(spans []span) map[string]map[int]time.Duration {
	self := selfTimes(spans)
	out := make(map[string]map[int]time.Duration)
	for i, s := range spans {
		if out[s.Name] == nil {
			out[s.Name] = make(map[int]time.Duration)
		}
		out[s.Name][s.Request] += self[i]
	}
	return out
}

// stageMedians reduces stageTotals to one median per stage, in ms.
func stageMedians(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for name, byReq := range stageTotals(spans) {
		xs := make([]float64, 0, len(byReq))
		for _, d := range byReq {
			xs = append(xs, ms(d))
		}
		out[name] = median(xs)
	}
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON ("X" complete
// events, one track per request) for chrome://tracing or Perfetto.
func writeChrome(w io.Writer, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(spans))
	for i, s := range spans {
		events[i] = event{Name: s.Name, Ph: "X",
			Ts:  float64(s.Start) / float64(time.Microsecond),
			Dur: float64(s.End-s.Start) / float64(time.Microsecond),
			Pid: 1, Tid: s.Request,
			Args: map[string]int{"span": i, "parent": s.Parent}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events})
}
