package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"dagcover/internal/obs/obstest"
)

func TestSpanRecording(t *testing.T) {
	tr := New()
	sp := tr.Start("core.label")
	time.Sleep(time.Millisecond)
	sp.Arg("nodes", 42).End()
	tr.Instant("match.buckets", Arg{Key: "hit", Val: 3})

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	e := events[0]
	if e.Name != "core.label" || e.Cat != "core" || e.Phase != 'X' {
		t.Errorf("span event = %+v", e)
	}
	if e.Dur <= 0 {
		t.Errorf("span duration %v, want > 0", e.Dur)
	}
	if e.TID == 0 {
		t.Errorf("span has no goroutine id")
	}
	if len(e.Args) != 1 || e.Args[0].Key != "nodes" {
		t.Errorf("span args = %v", e.Args)
	}
	if events[1].Phase != 'i' || events[1].Name != "match.buckets" {
		t.Errorf("instant event = %+v", events[1])
	}
}

// TestNilTraceNoOps pins the disabled-tracer contract: instrumented
// code passes nil traces down unguarded.
func TestNilTraceNoOps(t *testing.T) {
	var tr *Trace
	if tr.Enabled() {
		t.Fatal("nil trace reports enabled")
	}
	sp := tr.Start("x")
	sp.Arg("k", 1).End() // must not panic
	tr.Instant("y")
	if got := tr.Events(); got != nil {
		t.Fatalf("nil trace recorded events: %v", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil trace export: %v", err)
	}
	if err := obstest.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("empty trace invalid: %v", err)
	}
}

// TestConcurrentSpans exercises the tracer under the access pattern of
// parallel labeling: many goroutines starting and ending spans at
// once. Run with -race.
func TestConcurrentSpans(t *testing.T) {
	tr := New()
	var wg sync.WaitGroup
	const workers, spansPer = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				tr.Start("core.label.chunk").Arg("wave", i).End()
			}
		}(w)
	}
	wg.Wait()
	events := tr.Events()
	if len(events) != workers*spansPer {
		t.Fatalf("got %d events, want %d", len(events), workers*spansPer)
	}
	tids := map[uint64]bool{}
	for _, e := range events {
		tids[e.TID] = true
	}
	if len(tids) < 2 {
		t.Errorf("expected spans from multiple goroutines, saw tids %v", tids)
	}
}

func TestChromeTraceSchema(t *testing.T) {
	tr := New()
	sp := tr.Start("service.map")
	tr.Start("core.label").Arg("nodes", 7).End()
	sp.End()
	tr.Instant("match.signature_buckets", Arg{Key: "sig_3", Val: 12})

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("emitted trace fails schema validation: %v", err)
	}

	// Structural spot checks beyond the validator: the metadata event
	// names the process and span args survive the round trip.
	var out struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", out.DisplayTimeUnit)
	}
	if out.TraceEvents[0].Ph != "M" || out.TraceEvents[0].Name != "process_name" {
		t.Errorf("first event should be process metadata, got %+v", out.TraceEvents[0])
	}
	foundLabel := false
	for _, e := range out.TraceEvents {
		if e.Name == "core.label" {
			foundLabel = true
			if e.Args["nodes"] != float64(7) {
				t.Errorf("core.label args = %v", e.Args)
			}
		}
	}
	if !foundLabel {
		t.Error("core.label span missing from export")
	}
}

func TestGoroutineID(t *testing.T) {
	id := GoroutineID()
	if id == 0 {
		t.Fatal("goroutine id is 0")
	}
	done := make(chan uint64, 1)
	go func() { done <- GoroutineID() }()
	if other := <-done; other == id {
		t.Errorf("two goroutines share id %d", id)
	}
}
