// Package obs is the observability layer of the mapper: a phase/span
// tracer the pipeline stages thread through themselves so a mapping
// run can be attributed phase by phase — how long labeling took, how
// long supergate enumeration rounds took, which signature
// buckets the matcher probed — and exported as Chrome trace_event
// JSON for chrome://tracing / Perfetto.
//
// The package is stdlib-only and designed around a nil-safe handle:
// every method on a nil *Trace or nil *Span is a no-op, so
// instrumented code passes its (possibly nil) trace down unguarded
// and a disabled run pays only a nil check per span site. Span sites
// therefore sit at phase granularity (the labeling pass, an
// enumeration round, a request stage), never per node.
//
// Usage:
//
//	tr := obs.New()
//	sp := tr.Start("core.label")
//	...
//	sp.Arg("nodes", n).End()
//	tr.WriteChromeTrace(w)
package obs

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// Trace accumulates completed spans and instant events for one run.
// A Trace is safe for concurrent use: Map calls running at once may
// share one and End spans from their own goroutines. The zero value is not usable; call
// New. A nil *Trace is the disabled tracer: every method no-ops.
type Trace struct {
	mu     sync.Mutex
	start  time.Time
	events []Event
}

// Event is one recorded trace entry (a completed span or an instant).
type Event struct {
	// Name is the span name, conventionally "package.phase".
	Name string
	// Cat is the event category (the part of Name before the first
	// dot), used by trace viewers for filtering.
	Cat string
	// Phase is the trace_event phase: 'X' (complete span) or 'i'
	// (instant).
	Phase byte
	// Start is the offset from the trace epoch.
	Start time.Duration
	// Dur is the span duration (zero for instants).
	Dur time.Duration
	// TID is the goroutine id the span ran on.
	TID uint64
	// Args holds counters and attributes attached to the event.
	Args []Arg
}

// Arg is one key/value attached to an event. Values are rendered into
// the trace file's args object.
type Arg struct {
	Key string
	Val any
}

// New returns an enabled trace whose epoch is now.
func New() *Trace {
	return &Trace{start: time.Now()}
}

// Enabled reports whether spans are being recorded; false for nil.
func (t *Trace) Enabled() bool { return t != nil }

// Span is one in-flight phase measurement. Create with Trace.Start,
// attach counters with Arg, finish with End. A nil *Span no-ops.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	tid   uint64
	args  []Arg
}

// Start opens a span. The goroutine id is captured here, so a span
// must be ended on the goroutine that started it for its trace lane
// to be truthful.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now(), tid: GoroutineID()}
}

// Arg attaches a key/value (typically a counter) to the span and
// returns the span for chaining.
func (s *Span) Arg(key string, val any) *Span {
	if s == nil {
		return nil
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
	return s
}

// End records the span into its trace.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.t.append(Event{
		Name:  s.name,
		Cat:   category(s.name),
		Phase: 'X',
		Start: s.start.Sub(s.t.start),
		Dur:   now.Sub(s.start),
		TID:   s.tid,
		Args:  s.args,
	})
}

// Instant records a zero-duration event with the given args, for
// point-in-time annotations like the matcher's per-signature-bucket
// probe histogram.
func (t *Trace) Instant(name string, args ...Arg) {
	if t == nil {
		return
	}
	t.append(Event{
		Name:  name,
		Cat:   category(name),
		Phase: 'i',
		Start: time.Since(t.start),
		TID:   GoroutineID(),
		Args:  args,
	})
}

// Events returns a snapshot copy of the recorded events in completion
// order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Event(nil), t.events...)
}

func (t *Trace) append(e Event) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// category derives the event category from a "package.phase" name.
func category(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// GoroutineID extracts the current goroutine's id from its stack
// header ("goroutine N [running]:"). It costs about a microsecond —
// fine at span granularity, never call it per node.
func GoroutineID() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	s := buf[:n]
	s = bytes.TrimPrefix(s, []byte("goroutine "))
	if i := bytes.IndexByte(s, ' '); i > 0 {
		if id, err := strconv.ParseUint(string(s[:i]), 10, 64); err == nil {
			return id
		}
	}
	return 0
}
