package obs

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// --- runtime telemetry ---

func TestReadRuntimeSample(t *testing.T) {
	// The memory-class metrics flush at most once per GC cycle, so a
	// fresh test binary can legitimately read zeros; force a cycle so
	// the assertions below are deterministic.
	runtime.GC()
	s := ReadRuntimeSample()
	if s.Goroutines < 1 {
		t.Errorf("goroutines = %d, want >= 1", s.Goroutines)
	}
	if s.GOMAXPROCS < 1 {
		t.Errorf("gomaxprocs = %d, want >= 1", s.GOMAXPROCS)
	}
	if s.HeapInuseBytes == 0 {
		t.Error("heap in-use bytes = 0")
	}
	if s.TotalBytes < s.HeapInuseBytes {
		t.Errorf("total %d < heap in-use %d", s.TotalBytes, s.HeapInuseBytes)
	}
	if s.HeapAllocsBytes == 0 {
		t.Error("cumulative heap allocs = 0")
	}
	if s.Time.IsZero() {
		t.Error("sample has no timestamp")
	}
	if s.GCPauseP50 < 0 || s.GCPauseP99 < s.GCPauseP50 || s.GCPauseMax < s.GCPauseP99 {
		t.Errorf("GC pause quantiles not monotone: p50=%v p99=%v max=%v",
			s.GCPauseP50, s.GCPauseP99, s.GCPauseMax)
	}
	if s.SchedLatencyP99 < s.SchedLatencyP50 || s.SchedLatencyMax < s.SchedLatencyP99 {
		t.Errorf("sched latency quantiles not monotone: p50=%v p99=%v max=%v",
			s.SchedLatencyP50, s.SchedLatencyP99, s.SchedLatencyMax)
	}
}

// --- wide-event ring ---

func TestEventRingBoundedNewestFirst(t *testing.T) {
	r := NewEventRing(4)
	for i := 0; i < 10; i++ {
		r.Add(WideEvent{TraceID: string(rune('a' + i)), Status: 200, Result: "ok"})
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	got := r.Snapshot(0, nil)
	if len(got) != 4 {
		t.Fatalf("resident = %d, want ring cap 4", len(got))
	}
	want := []string{"j", "i", "h", "g"}
	for i, e := range got {
		if e.TraceID != want[i] {
			t.Errorf("snapshot[%d] = %q, want %q (newest first)", i, e.TraceID, want[i])
		}
	}
	if got := r.Snapshot(2, nil); len(got) != 2 || got[0].TraceID != "j" {
		t.Errorf("limit 2 = %v", got)
	}
}

func TestEventRingFilter(t *testing.T) {
	r := NewEventRing(8)
	r.Add(WideEvent{TraceID: "t1", Result: "ok"})
	r.Add(WideEvent{TraceID: "t2", Result: "overloaded"})
	r.Add(WideEvent{TraceID: "t3", Result: "ok"})
	got := r.Snapshot(0, func(e *WideEvent) bool { return e.Result == "ok" })
	if len(got) != 2 || got[0].TraceID != "t3" || got[1].TraceID != "t1" {
		t.Errorf("filtered = %+v", got)
	}
}

func TestEventRingConcurrent(t *testing.T) {
	r := NewEventRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Add(WideEvent{Result: "ok"})
				r.Snapshot(10, nil)
			}
		}()
	}
	wg.Wait()
	if r.Total() != 800 {
		t.Errorf("total = %d, want 800", r.Total())
	}
}

// --- burn tracker ---

func TestBurnTrackerWindows(t *testing.T) {
	b := NewBurnTracker(0.99, WindowSpec{"5m", 5 * time.Minute}, WindowSpec{"1h", time.Hour})
	base := time.Unix(1_000_000, 0)
	// 30 minutes ago: 100 requests, 10 bad — outside 5m, inside 1h.
	for i := 0; i < 100; i++ {
		b.Record(base.Add(-30*time.Minute), i < 10)
	}
	// Inside the last 5 minutes: 100 requests, 2 bad.
	for i := 0; i < 100; i++ {
		b.Record(base.Add(-time.Minute), i < 2)
	}
	rates := b.Rates(base)
	if len(rates) != 2 {
		t.Fatalf("rates = %d windows", len(rates))
	}
	r5, r1h := rates[0], rates[1]
	if r5.Window != "5m" || r1h.Window != "1h" {
		t.Fatalf("window order = %q, %q", r5.Window, r1h.Window)
	}
	if r5.Total != 100 || r5.Bad != 2 {
		t.Errorf("5m = %d/%d, want 2/100 bad", r5.Bad, r5.Total)
	}
	// bad fraction 0.02 over a 0.01 budget: burning 2x.
	if r5.Rate < 1.99 || r5.Rate > 2.01 {
		t.Errorf("5m burn rate = %v, want 2.0", r5.Rate)
	}
	if r1h.Total != 200 || r1h.Bad != 12 {
		t.Errorf("1h = %d/%d, want 12/200 bad", r1h.Bad, r1h.Total)
	}
	if r1h.Rate < 5.99 || r1h.Rate > 6.01 {
		t.Errorf("1h burn rate = %v, want 6.0", r1h.Rate)
	}
}

func TestBurnTrackerIdleAndExpiry(t *testing.T) {
	b := NewBurnTracker(0.99, WindowSpec{"5m", 5 * time.Minute})
	base := time.Unix(2_000_000, 0)
	if r := b.Rates(base)[0]; r.Total != 0 || r.Rate != 0 {
		t.Errorf("idle tracker = %+v, want zeros", r)
	}
	b.Record(base, true)
	if r := b.Rates(base)[0]; r.Bad != 1 {
		t.Errorf("bad = %d, want 1", r.Bad)
	}
	// Ten minutes later the event has rolled out of the window.
	if r := b.Rates(base.Add(10 * time.Minute))[0]; r.Total != 0 {
		t.Errorf("after expiry total = %d, want 0", r.Total)
	}
}

func TestBurnTrackerDefaults(t *testing.T) {
	b := NewBurnTracker(0)
	if b.Goal() != 0.99 {
		t.Errorf("default goal = %v", b.Goal())
	}
	ws := b.Windows()
	if len(ws) != 2 || ws[0].Name != "5m" || ws[1].Name != "1h" {
		t.Errorf("default windows = %+v", ws)
	}
}

// --- diagnostics recorder ---

func testBundle(id string) *DiagBundle {
	return &DiagBundle{
		TraceID: id,
		Reason:  "slow_request",
		Event:   WideEvent{TraceID: id, Result: "ok", Status: 200, DurationMillis: 42},
		Runtime: ReadRuntimeSample(),
	}
}

func TestDiagCaptureBundle(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDiagRecorder(dir, DiagOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b := testBundle("cafe0123deadbeef")
	b.GoroutineDump = GoroutineDump()
	path, err := d.Capture(b)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	if !strings.Contains(filepath.Base(path), "cafe0123deadbeef") {
		t.Errorf("bundle name %q does not carry the trace id", path)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got DiagBundle
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("bundle is not valid JSON: %v", err)
	}
	if got.TraceID != "cafe0123deadbeef" || got.Event.DurationMillis != 42 {
		t.Errorf("round-trip bundle = %+v", got)
	}
	if !strings.Contains(got.GoroutineDump, "goroutine") {
		t.Error("goroutine dump missing")
	}
	if got.CapturedAt.IsZero() {
		t.Error("captured_at not stamped")
	}
	if c, dr, _ := d.Counters(); c != 1 || dr != 0 {
		t.Errorf("counters = %d captures, %d dropped", c, dr)
	}
}

func TestDiagRateLimit(t *testing.T) {
	d, err := NewDiagRecorder(t.TempDir(), DiagOptions{MinInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Capture(testBundle("aa")); err != nil {
		t.Fatalf("first capture: %v", err)
	}
	for i := 0; i < 5; i++ {
		if _, err := d.Capture(testBundle("bb")); err != ErrDiagRateLimited {
			t.Fatalf("capture %d: err = %v, want rate-limited", i, err)
		}
	}
	c, dr, _ := d.Counters()
	if c != 1 || dr != 5 {
		t.Errorf("counters = %d captures, %d dropped; want 1, 5", c, dr)
	}
	if c+dr != 6 {
		t.Errorf("captures+dropped = %d, want 6 attempts", c+dr)
	}
}

func TestDiagGCBudget(t *testing.T) {
	// Measure one bundle so the budget can be sized to hold exactly one.
	probe, err := NewDiagRecorder(t.TempDir(), DiagOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := probe.Capture(testBundle("probe"))
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(p)
	if err != nil {
		t.Fatal(err)
	}
	bundleSize := info.Size()

	dir := t.TempDir()
	d, err := NewDiagRecorder(dir, DiagOptions{MaxBytes: bundleSize + bundleSize/2})
	if err != nil {
		t.Fatal(err)
	}
	// Capture three bundles with distinct mtimes; the budget holds one,
	// so each sweep evicts everything but the newest.
	var last string
	for i := 0; i < 3; i++ {
		b := testBundle(strings.Repeat(string(rune('a'+i)), 4))
		p, err := d.Capture(b)
		if err != nil {
			t.Fatal(err)
		}
		// Age earlier files so mtime ordering is unambiguous.
		old := time.Now().Add(-time.Duration(3-i) * time.Hour)
		os.Chtimes(p, old, old)
		last = p
		d.GC()
	}
	files, _ := d.Usage()
	if files != 1 {
		t.Errorf("resident bundles = %d, want 1 (budget eviction)", files)
	}
	if _, err := os.Stat(last); err != nil {
		t.Errorf("newest bundle evicted: %v", err)
	}
	if _, _, ev := d.Counters(); ev == 0 {
		t.Error("eviction counter never moved")
	}
}
