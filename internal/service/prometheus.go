package service

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"

	"dagcover/internal/jobs"
)

// Prometheus text exposition (format version 0.0.4), hand-rolled: the
// service is dependency-free by design, and the subset needed —
// counters, gauges, and fixed-bucket histograms — is small. Metric
// families are emitted in a stable order with sorted library labels,
// so scrapes are deterministic and the exposition test can golden the
// structure.

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	st := s.Stats()
	var b strings.Builder
	writeMetrics(&b, &st)
	_, _ = w.Write([]byte(b.String()))
}

// writeMetrics renders a snapshot as the full exposition.
func writeMetrics(b *strings.Builder, st *StatsSnapshot) {
	metric(b, "mapd_uptime_seconds", "gauge", "Seconds since the server started.", float64(st.UptimeMillis)/1e3)

	family(b, "mapd_build_info", "gauge", "Build identity of the running binary; value is always 1.")
	sample(b, "mapd_build_info", labels{{"go_version", st.Build.GoVersion}, {"version", st.Build.Version}}, 1)

	metric(b, "mapd_requests_received_total", "counter", "Mapping requests received, before admission or parsing.", float64(st.Requests.Total))
	family(b, "mapd_requests_total", "counter", "Mapping requests finished, by result.")
	for r, n := range st.requestsByResult() {
		sample(b, "mapd_requests_total", labels{{"result", result(r).String()}}, float64(*n))
	}

	metric(b, "mapd_patterns_tried_total", "counter", "Pattern plans attempted by the matcher across all served mappings.", float64(st.PatternsTried))
	metric(b, "mapd_memo_hits_total", "counter", "Structural match-memo hits attributed to served mappings.", float64(st.Memo.Hits))
	metric(b, "mapd_memo_misses_total", "counter", "Structural match-memo misses attributed to served mappings.", float64(st.Memo.Misses))

	metric(b, "mapd_cache_hits_total", "counter", "Compiled-library cache hits.", float64(st.Cache.Hits))
	metric(b, "mapd_cache_misses_total", "counter", "Compiled-library cache misses.", float64(st.Cache.Misses))
	metric(b, "mapd_cache_compiles_total", "counter", "Library compilations performed (misses that completed).", float64(st.Cache.Compiles))
	metric(b, "mapd_cache_libraries", "gauge", "Compiled libraries currently cached.", float64(st.Cache.Libraries))

	metric(b, "mapd_queue_running", "gauge", "Mapping runs currently executing.", float64(st.Queue.Running))
	metric(b, "mapd_queue_queued", "gauge", "Requests waiting for a run slot.", float64(st.Queue.Queued))
	metric(b, "mapd_queue_concurrency", "gauge", "Admission concurrency limit.", float64(st.Queue.Concurrency))
	metric(b, "mapd_queue_capacity", "gauge", "Admission queue capacity.", float64(st.Queue.QueueCapacity))

	if ss := st.Store; ss != nil {
		metric(b, "mapd_store_hits_total", "counter", "Artifact store hits (expensive generations skipped).", float64(ss.Hits))
		metric(b, "mapd_store_misses_total", "counter", "Artifact store misses (artifact generated).", float64(ss.Misses))
		metric(b, "mapd_store_writes_total", "counter", "Artifacts published to the store.", float64(ss.Writes))
		metric(b, "mapd_store_write_errors_total", "counter", "Artifact publications that failed (generation still served).", float64(ss.WriteErrors))
		metric(b, "mapd_store_evictions_total", "counter", "Artifacts evicted by the size-budgeted LRU GC.", float64(ss.Evictions))
		metric(b, "mapd_store_quarantined_total", "counter", "Corrupt artifacts quarantined (and transparently regenerated).", float64(ss.Quarantined))
		metric(b, "mapd_store_objects", "gauge", "Artifacts currently on disk.", float64(ss.Objects))
		metric(b, "mapd_store_bytes", "gauge", "Bytes of artifacts currently on disk.", float64(ss.Bytes))
		metric(b, "mapd_store_max_bytes", "gauge", "Artifact store GC budget in bytes.", float64(ss.MaxBytes))
		metric(b, "mapd_store_generation_seconds_total", "counter", "Wall time spent generating artifacts on store misses.", ss.GenSeconds)
		metric(b, "mapd_store_generation_seconds_saved_total", "counter", "Recorded generation time of artifacts served as store hits.", ss.SavedSeconds)
	}

	if rc := st.ResultCache; rc != nil {
		family(b, "mapd_result_cache_hits_total", "counter", "Whole-result cache hits, by tier (mem = in-process LRU, disk = artifact store).")
		sample(b, "mapd_result_cache_hits_total", labels{{"tier", "mem"}}, float64(rc.MemHits))
		sample(b, "mapd_result_cache_hits_total", labels{{"tier", "disk"}}, float64(rc.DiskHits))
		metric(b, "mapd_result_cache_misses_total", "counter", "Whole-result cache misses (engine runs that published a result).", float64(rc.Misses))
		metric(b, "mapd_result_cache_coalesced_total", "counter", "Requests served by waiting on an identical concurrent request's run.", float64(rc.Coalesced))
		metric(b, "mapd_result_cache_stores_total", "counter", "Mapping results published to the artifact store.", float64(rc.Stores))
		metric(b, "mapd_result_cache_store_errors_total", "counter", "Result publications that failed (the response was still served).", float64(rc.StoreErrors))
		metric(b, "mapd_result_cache_entries", "gauge", "Results held by the in-memory cache.", float64(rc.Entries))
		metric(b, "mapd_result_cache_bytes", "gauge", "Bytes of serialized results held by the in-memory cache.", float64(rc.Bytes))
		metric(b, "mapd_result_cache_max_bytes", "gauge", "In-memory result cache budget in bytes.", float64(rc.MaxBytes))
	}

	js := &st.Jobs
	metric(b, "mapd_jobs_submitted_total", "counter", "Batch jobs accepted by POST /jobs.", float64(js.Submitted))
	family(b, "mapd_jobs_completed_total", "counter", "Batch jobs finished, by terminal state.")
	sample(b, "mapd_jobs_completed_total", labels{{"state", "done"}}, float64(js.Done))
	sample(b, "mapd_jobs_completed_total", labels{{"state", "failed"}}, float64(js.Failed))
	sample(b, "mapd_jobs_completed_total", labels{{"state", "cancelled"}}, float64(js.Cancelled))
	metric(b, "mapd_jobs_evicted_total", "counter", "Jobs dropped from the store by TTL sweep or capacity eviction.", float64(js.Evicted))
	family(b, "mapd_jobs_current", "gauge", "Resident jobs in the store, by state.")
	for _, state := range jobs.States() {
		sample(b, "mapd_jobs_current", labels{{"state", state.String()}}, float64(js.ByState[state.String()]))
	}
	family(b, "mapd_job_items_total", "counter", "Batch job items settled, by result.")
	sample(b, "mapd_job_items_total", labels{{"result", "ok"}}, float64(js.ItemsOK))
	sample(b, "mapd_job_items_total", labels{{"result", "failed"}}, float64(js.ItemsFailed))
	sample(b, "mapd_job_items_total", labels{{"result", "timeout"}}, float64(js.ItemsTimeout))
	sample(b, "mapd_job_items_total", labels{{"result", "cancelled"}}, float64(js.ItemsCancelled))
	family(b, "mapd_job_item_duration_seconds", "histogram", "Mapping latency per batch job item (mapped items only).")
	writeHistogram(b, "mapd_job_item_duration_seconds", nil, &js.itemLatency)

	family(b, "mapd_phase_seconds_total", "counter", "Request wall time by phase, summed across requests.")
	for _, name := range phaseNames {
		sample(b, "mapd_phase_seconds_total", labels{{"phase", name}}, st.PhaseMillis[name]/1e3)
	}

	// Flight recorder: runtime telemetry, burn rates, event ring, and
	// (when enabled) slow-request capture counters.
	rt := &st.Runtime
	metric(b, "mapd_go_goroutines", "gauge", "Live goroutines (runtime/metrics).", float64(rt.Goroutines))
	metric(b, "mapd_go_gomaxprocs", "gauge", "Scheduler processor limit.", float64(rt.GOMAXPROCS))
	metric(b, "mapd_go_heap_inuse_bytes", "gauge", "Bytes occupied by live heap objects plus unswept spans.", float64(rt.HeapInuseBytes))
	metric(b, "mapd_go_total_bytes", "gauge", "All memory mapped by the Go runtime.", float64(rt.TotalBytes))
	metric(b, "mapd_go_heap_allocs_bytes_total", "counter", "Cumulative bytes allocated on the heap.", float64(rt.HeapAllocsBytes))
	metric(b, "mapd_go_gc_cycles_total", "counter", "Completed GC cycles.", float64(rt.GCCycles))
	family(b, "mapd_go_gc_pause_seconds", "gauge", "GC stop-the-world pause quantiles from the runtime histogram.")
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "0.5"}}, rt.GCPauseP50)
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "0.99"}}, rt.GCPauseP99)
	sample(b, "mapd_go_gc_pause_seconds", labels{{"quantile", "1"}}, rt.GCPauseMax)
	family(b, "mapd_go_sched_latency_seconds", "gauge", "Scheduler latency quantiles: time runnable goroutines waited for a thread.")
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "0.5"}}, rt.SchedLatencyP50)
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "0.99"}}, rt.SchedLatencyP99)
	sample(b, "mapd_go_sched_latency_seconds", labels{{"quantile", "1"}}, rt.SchedLatencyMax)

	family(b, "mapd_slo_burn_rate", "gauge", "Error-budget burn rate per rolling window (1 = exactly exhausting the budget).")
	for _, r := range st.SLO.Windows {
		sample(b, "mapd_slo_burn_rate", labels{{"window", r.Window}}, r.Rate)
	}
	metric(b, "mapd_slo_goal", "gauge", "Availability goal behind the burn rates (fraction of good requests).", st.SLO.Goal)

	metric(b, "mapd_events_recorded_total", "counter", "Wide events recorded into the /debug/events ring.", float64(st.Events.Recorded))

	if d := st.Diag; d != nil {
		metric(b, "mapd_diag_captures_total", "counter", "Diagnostics bundles published for slow or SLO-violating requests.", float64(d.Captures))
		metric(b, "mapd_diag_dropped_total", "counter", "Diagnostics captures dropped by the rate limiter or write errors.", float64(d.Dropped))
		metric(b, "mapd_diag_evictions_total", "counter", "Diagnostics bundles evicted by the size-budgeted GC.", float64(d.Evictions))
		metric(b, "mapd_diag_bundles", "gauge", "Diagnostics bundles currently on disk.", float64(d.Bundles))
		metric(b, "mapd_diag_bytes", "gauge", "Bytes of diagnostics bundles currently on disk.", float64(d.Bytes))
	}

	names := make([]string, 0, len(st.Libraries))
	for name := range st.Libraries {
		names = append(names, name)
	}
	sort.Strings(names)
	family(b, "mapd_requests_by_library_total", "counter", "Served mappings per library.")
	for _, name := range names {
		sample(b, "mapd_requests_by_library_total", labels{{"library", name}}, float64(st.Libraries[name].Requests))
	}
	family(b, "mapd_patterns_tried_by_library_total", "counter", "Pattern plans attempted per library.")
	for _, name := range names {
		sample(b, "mapd_patterns_tried_by_library_total", labels{{"library", name}}, float64(st.Libraries[name].PatternsTried))
	}
	family(b, "mapd_request_duration_seconds", "histogram", "Served mapping latency per library.")
	for _, name := range names {
		ls := st.Libraries[name]
		writeHistogram(b, "mapd_request_duration_seconds", labels{{"library", name}}, &ls.latency)
	}
	family(b, "mapd_patterns_tried_per_request", "histogram", "Pattern plans attempted per served mapping, per library.")
	for _, name := range names {
		ls := st.Libraries[name]
		writeHistogram(b, "mapd_patterns_tried_per_request", labels{{"library", name}}, &ls.patterns)
	}
}

// labels is an ordered label set (exposition order is authoring order).
type labels [][2]string

func family(b *strings.Builder, name, typ, help string) {
	fmt.Fprintf(b, "# HELP %s %s\n", name, help)
	fmt.Fprintf(b, "# TYPE %s %s\n", name, typ)
}

// metric writes a family with its one unlabeled sample.
func metric(b *strings.Builder, name, typ, help string, v float64) {
	family(b, name, typ, help)
	sample(b, name, nil, v)
}

func sample(b *strings.Builder, name string, ls labels, v float64) {
	b.WriteString(name)
	writeLabels(b, ls)
	b.WriteByte(' ')
	b.WriteString(formatValue(v))
	b.WriteByte('\n')
}

func writeLabels(b *strings.Builder, ls labels) {
	if len(ls) == 0 {
		return
	}
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l[0])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l[1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeHistogram emits the cumulative bucket series, sum and count of
// one histogram under the base label set (empty for an unlabeled one).
func writeHistogram(b *strings.Builder, name string, base labels, h *histogram) {
	cum := uint64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i]
		sample(b, name+"_bucket", append(base[:len(base):len(base)], [2]string{"le", formatValue(bound)}), float64(cum))
	}
	cum += h.counts[len(h.bounds)]
	sample(b, name+"_bucket", append(base[:len(base):len(base)], [2]string{"le", "+Inf"}), float64(cum))
	sample(b, name+"_sum", base, h.sum)
	sample(b, name+"_count", base, float64(h.n))
}
