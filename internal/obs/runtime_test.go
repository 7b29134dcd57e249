package obs

import (
	"runtime"
	"testing"
)

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
