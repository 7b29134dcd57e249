package service

import (
	"bytes"
	"net/http"
	"strconv"
	"time"

	"dagcover"
	"dagcover/internal/obs"
)

// The flight-recorder layer: every finished request or job item
// produces one wide event into a bounded ring (served at
// /debug/events), feeds the SLO burn-rate tracker, and — when it
// tripped the slow threshold or the latency SLO and a diagnostics
// recorder is configured — publishes a self-contained bundle (wide
// event, Chrome trace spans, goroutine dump, runtime sample) so a p99
// breach carries its own evidence instead of just moving a histogram
// bucket.

// burnWindows are the service's rolling SLO windows: a short one for
// paging-speed detection, a long one for trend.
var burnWindows = []obs.WindowSpec{
	{Name: "5m", Dur: 5 * time.Minute},
	{Name: "1h", Dur: time.Hour},
}

// eventPhaseMillis renders one request's full phase breakdown —
// service phases plus the engine's internal/obs wall times when the
// mapper ran — for wide events and access logs.
func eventPhaseMillis(ph *reqPhases) map[string]float64 {
	m := make(map[string]float64, numPhases+5)
	for p, name := range phaseNames {
		m[name] = millis(ph.dur[p])
	}
	if ph.core != (dagcover.PhaseBreakdown{}) {
		m["label"] = ph.core.LabelMillis
		m["label_wall"] = ph.core.LabelWallMillis
		m["area"] = ph.core.AreaMillis
		m["cover"] = ph.core.CoverMillis
		m["emit"] = ph.core.EmitMillis
	}
	return m
}

// recordFlight folds one finished request (kind "map") or job item
// (kind "job_item") into the phase totals, the access log and the
// flight recorder: wide-event ring, burn tracker, and — past the
// slow/SLO thresholds — a diagnostics bundle. itemIndex/itemName only
// apply to job items.
func (s *Server) recordFlight(traceID, kind string, itemIndex int, itemName string, status int, total time.Duration, ph *reqPhases) {
	s.metrics.phases.add(ph)
	now := time.Now()
	slow := s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest
	// A latency-SLO violation: a served request over the target, or a
	// timeout (which by definition exceeded any latency target).
	violation := status == http.StatusGatewayTimeout ||
		(s.cfg.SLOLatency > 0 && status == http.StatusOK && total > s.cfg.SLOLatency)
	shed := status == http.StatusTooManyRequests

	ev := obs.WideEvent{
		Time:           now,
		TraceID:        traceID,
		Kind:           kind,
		ItemIndex:      itemIndex,
		ItemName:       itemName,
		Library:        ph.library,
		Mode:           ph.mode,
		Result:         resultLabel(status).String(),
		Status:         status,
		Error:          ph.errMsg,
		DurationMillis: millis(total),
		PhaseMillis:    eventPhaseMillis(ph),
		CacheHit:       ph.cacheHit,
		MemoHits:       ph.memoHits,
		MemoMisses:     ph.memoMisses,
		SGStoreHit:     ph.sgStoreHit,
		SubjectSHA:     ph.subjectSHA,
		ResultCache:    ph.resultCache,
		Slow:           slow || violation,
	}
	s.logEvent(&ev, slow)
	s.events.Add(ev)
	s.burn.Record(now, violation || shed)

	if s.diag == nil || !(slow || violation) {
		return
	}
	reason := "slow_request"
	if violation && !slow {
		reason = "slo_violation"
	}
	bundle := &obs.DiagBundle{
		TraceID:       traceID,
		Reason:        reason,
		Event:         ev,
		Runtime:       obs.ReadRuntimeSample(),
		GoroutineDump: obs.GoroutineDump(),
	}
	if ph.trace != nil {
		var buf bytes.Buffer
		if err := ph.trace.WriteChromeTrace(&buf); err == nil {
			bundle.Trace = buf.Bytes()
		}
	}
	// Rate-limited or failed captures are accounted by the recorder's
	// dropped counter; serving never blocks on diagnostics.
	_, _ = s.diag.Capture(bundle)
}

// recordShedBurn counts an admission shed that happened outside the
// /map path (job submissions) against the error budget.
func (s *Server) recordShedBurn() { s.burn.Record(time.Now(), true) }

// handleDebugEvents serves GET /debug/events: the wide-event ring as
// JSON, newest first. ?result= filters by outcome label, ?kind= by
// map/job_item, ?limit= bounds the response (default 100).
func (s *Server) handleDebugEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "GET /debug/events")
		return
	}
	q := r.URL.Query()
	limit := 100
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	result, kind := q.Get("result"), q.Get("kind")
	var keep func(*obs.WideEvent) bool
	if result != "" || kind != "" {
		keep = func(e *obs.WideEvent) bool {
			return (result == "" || e.Result == result) && (kind == "" || e.Kind == kind)
		}
	}
	events := s.events.Snapshot(limit, keep)
	writeJSON(w, http.StatusOK, struct {
		TotalRecorded uint64          `json:"total_recorded"`
		Capacity      int             `json:"capacity"`
		Returned      int             `json:"returned"`
		Events        []obs.WideEvent `json:"events"`
	}{s.events.Total(), s.events.Cap(), len(events), events})
}

// logEvent writes one access-log record per /map request or batch
// item. An item's record carries its parent job's trace id, so a single
// grep follows a batch end to end. Slow records are promoted to Warn.
func (s *Server) logEvent(ev *obs.WideEvent, slow bool) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	msg := "mapping request"
	attrs := make([]any, 0, 2*(8+numPhases))
	attrs = append(attrs, "trace_id", ev.TraceID)
	if ev.Kind == "job_item" {
		msg = "job item"
		attrs = append(attrs, "item_index", ev.ItemIndex, "item_name", ev.ItemName)
	}
	attrs = append(attrs, "status", ev.Status, "library", ev.Library, "mode", ev.Mode,
		"cache_hit", ev.CacheHit, "total_ms", ev.DurationMillis)
	for _, name := range phaseNames {
		attrs = append(attrs, name+"_ms", ev.PhaseMillis[name])
	}
	if slow {
		lg.Warn("slow "+msg, attrs...)
		return
	}
	lg.Info(msg, attrs...)
}
