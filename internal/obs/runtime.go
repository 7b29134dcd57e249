package obs

import (
	"runtime"
	"runtime/metrics"
	"time"
)

// Runtime telemetry: a point-in-time sample of the Go runtime's own
// metrics (heap footprint, GC pause distribution, goroutine count,
// scheduler latency) read from runtime/metrics. One read costs a few
// microseconds, so the service reads a fresh sample for every /stats
// or /metrics snapshot (the /stats "runtime" block and the mapd_go_*
// Prometheus families), and every diagnostics bundle embeds one — a
// slow request's evidence includes what the runtime was doing at
// capture time.

// RuntimeSample is one reading of the runtime metrics the mapping
// service cares about. Quantiles come from the runtime's own
// histograms (bucket upper bounds, so they are conservative).
type RuntimeSample struct {
	// Time is when the sample was taken.
	Time time.Time `json:"time"`
	// Goroutines is the live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// GOMAXPROCS is the scheduler's processor limit.
	GOMAXPROCS int `json:"gomaxprocs"`
	// HeapInuseBytes is memory occupied by live heap objects plus
	// unswept spans (/memory/classes/heap/objects:bytes).
	HeapInuseBytes uint64 `json:"heap_inuse_bytes"`
	// TotalBytes is all memory mapped by the runtime
	// (/memory/classes/total:bytes).
	TotalBytes uint64 `json:"total_bytes"`
	// HeapAllocsBytes is cumulative bytes allocated on the heap
	// (/gc/heap/allocs:bytes — a counter).
	HeapAllocsBytes uint64 `json:"heap_allocs_bytes_total"`
	// GCCycles is completed GC cycles (/gc/cycles/total:gc-cycles).
	GCCycles uint64 `json:"gc_cycles_total"`
	// GC stop-the-world pause quantiles, seconds (/gc/pauses:seconds).
	GCPauseP50 float64 `json:"gc_pause_p50_s"`
	GCPauseP99 float64 `json:"gc_pause_p99_s"`
	GCPauseMax float64 `json:"gc_pause_max_s"`
	// Scheduler latency quantiles, seconds: how long runnable
	// goroutines waited for a thread (/sched/latencies:seconds).
	SchedLatencyP50 float64 `json:"sched_latency_p50_s"`
	SchedLatencyP99 float64 `json:"sched_latency_p99_s"`
	SchedLatencyMax float64 `json:"sched_latency_max_s"`
}

// runtimeMetricNames are the runtime/metrics samples one read fills.
var runtimeMetricNames = []string{
	"/sched/goroutines:goroutines",
	"/memory/classes/heap/objects:bytes",
	"/memory/classes/total:bytes",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/gc/pauses:seconds",
	"/sched/latencies:seconds",
}

// ReadRuntimeSample takes one sample now. Metrics a runtime version
// doesn't support are left zero rather than failing the read.
func ReadRuntimeSample() RuntimeSample {
	samples := make([]metrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	metrics.Read(samples)

	out := RuntimeSample{Time: time.Now(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	for _, s := range samples {
		switch s.Name {
		case "/sched/goroutines:goroutines":
			if s.Value.Kind() == metrics.KindUint64 {
				out.Goroutines = int64(s.Value.Uint64())
			}
		case "/memory/classes/heap/objects:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				out.HeapInuseBytes = s.Value.Uint64()
			}
		case "/memory/classes/total:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				out.TotalBytes = s.Value.Uint64()
			}
		case "/gc/heap/allocs:bytes":
			if s.Value.Kind() == metrics.KindUint64 {
				out.HeapAllocsBytes = s.Value.Uint64()
			}
		case "/gc/cycles/total:gc-cycles":
			if s.Value.Kind() == metrics.KindUint64 {
				out.GCCycles = s.Value.Uint64()
			}
		case "/gc/pauses:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				out.GCPauseP50 = histQuantile(h, 0.50)
				out.GCPauseP99 = histQuantile(h, 0.99)
				out.GCPauseMax = histQuantile(h, 1)
			}
		case "/sched/latencies:seconds":
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				h := s.Value.Float64Histogram()
				out.SchedLatencyP50 = histQuantile(h, 0.50)
				out.SchedLatencyP99 = histQuantile(h, 0.99)
				out.SchedLatencyMax = histQuantile(h, 1)
			}
		}
	}
	return out
}

// histQuantile estimates the q-quantile of a runtime histogram as the
// upper bound of the bucket holding the target rank (infinite edges
// clamp to the nearest finite bound). q=1 returns the upper edge of
// the highest nonempty bucket.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if float64(cum) >= target && c > 0 {
			if q >= 1 {
				// Keep scanning for the highest nonempty bucket.
				last := i
				for j := i + 1; j < len(h.Counts); j++ {
					if h.Counts[j] > 0 {
						last = j
					}
				}
				i = last
			}
			return finiteEdge(h.Buckets, i+1)
		}
	}
	return finiteEdge(h.Buckets, len(h.Buckets)-1)
}

// finiteEdge returns Buckets[i] clamped away from ±Inf.
func finiteEdge(buckets []float64, i int) float64 {
	if i < 0 || len(buckets) == 0 {
		return 0
	}
	if i >= len(buckets) {
		i = len(buckets) - 1
	}
	v := buckets[i]
	for i > 0 && (v != v || v > 1e300 || v < -1e300) { // NaN or ±Inf
		i--
		v = buckets[i]
	}
	if v > 1e300 || v < -1e300 || v != v {
		return 0
	}
	return v
}
