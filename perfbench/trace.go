package main

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// noSpan is the id begin returns on a nil tracer and the parent of an
// operation's root span.
const noSpan = -1

// span is one call the benchmark made into a layer of the program.
type span struct {
	name       string
	op         int // operation the call belongs to
	parent     int // enclosing span, noSpan for an operation's root
	tid        int // caller that made the call
	start, end time.Duration
}

// tracer records spans in memory; they are written out once, when the
// benchmark ends. A nil *tracer records nothing, so the untraced pass
// runs the same code with no bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, op, parent, tid int) int {
	if t == nil {
		return noSpan
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, tid: tid, start: now, end: now})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == noSpan {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// layerTimes derives, per span name, the summed duration and the
// summed self time: a span's duration minus the part of it its
// children cover. The calls under one parent run one after another,
// so the covered part is the children's summed duration. The root
// spans are named "op"; their self time is the operation's unnamed
// remainder.
func (t *tracer) layerTimes() (total, self map[string]time.Duration) {
	total = map[string]time.Duration{}
	self = map[string]time.Duration{}
	children := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent != noSpan {
			children[s.parent] += s.end - s.start
		}
	}
	for i, s := range t.spans {
		d := s.end - s.start
		total[s.name] += d
		self[s.name] += d - children[i]
	}
	return total, self
}

// writeChrome writes the spans as Chrome trace_event JSON (complete
// "X" events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start),
			PID: 1, TID: s.tid, Args: map[string]int{"op": s.op, "span": i, "parent": s.parent}}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
