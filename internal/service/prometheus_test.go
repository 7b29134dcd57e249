package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
)

// scrapeMetrics serves one mapping and returns the /metrics body.
func scrapeMetrics(t *testing.T, s *Server) string {
	t.Helper()
	code, _, body := post(t, s.Handler(), nil, MapRequest{
		BLIF: blifOf(t, bench.RippleAdder(8)), Library: "44-3",
	})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("/metrics content type = %q", ct)
	}
	return w.Body.String()
}

// expoLine matches one exposition sample: name{labels} value.
var expoLine = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// parseExposition checks every non-comment line is well-formed and
// returns samples keyed by full series (name + label block).
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			if !strings.HasPrefix(line, "# HELP ") && !strings.HasPrefix(line, "# TYPE ") {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		mm := expoLine.FindStringSubmatch(line)
		if mm == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(mm[3], 64)
		if err != nil {
			t.Errorf("bad value in %q: %v", line, err)
			continue
		}
		series := mm[1] + mm[2]
		if _, dup := samples[series]; dup {
			t.Errorf("duplicate series %q", series)
		}
		samples[series] = v
	}
	return samples
}

// TestMetricsExposition is the scrape contract: after one served
// mapping every core counter family is present and non-zero, the
// per-library histogram exists with monotone cumulative buckets, and
// every line parses as exposition format 0.0.4.
func TestMetricsExposition(t *testing.T) {
	s := New(Config{Concurrency: 2})
	body := scrapeMetrics(t, s)
	samples := parseExposition(t, body)

	nonzero := []string{
		"mapd_uptime_seconds",
		"mapd_requests_received_total",
		`mapd_requests_total{result="ok"}`,
		"mapd_patterns_tried_total",
		"mapd_cache_misses_total",
		"mapd_cache_compiles_total",
		"mapd_cache_libraries",
		"mapd_queue_concurrency",
		`mapd_phase_seconds_total{phase="map"}`,
		`mapd_requests_by_library_total{library="44-3"}`,
		`mapd_patterns_tried_by_library_total{library="44-3"}`,
		`mapd_request_duration_seconds_count{library="44-3"}`,
		`mapd_patterns_tried_per_request_count{library="44-3"}`,
	}
	for _, series := range nonzero {
		v, ok := samples[series]
		if !ok {
			t.Errorf("series %s absent from exposition", series)
			continue
		}
		if v <= 0 {
			t.Errorf("series %s = %v, want > 0", series, v)
		}
	}
	// Zero-valued but mandatory series.
	for _, series := range []string{
		`mapd_requests_total{result="bad_request"}`,
		`mapd_requests_total{result="overloaded"}`,
		"mapd_queue_running",
		"mapd_queue_queued",
	} {
		if _, ok := samples[series]; !ok {
			t.Errorf("series %s absent from exposition", series)
		}
	}

	// Histogram structure: cumulative buckets are monotone and the
	// +Inf bucket equals _count.
	for _, h := range []struct {
		name   string
		bounds []float64
	}{
		{"mapd_request_duration_seconds", latencyBounds},
		{"mapd_patterns_tried_per_request", patternsBounds},
	} {
		prev := -1.0
		for _, bound := range h.bounds {
			series := fmt.Sprintf(`%s_bucket{library="44-3",le="%s"}`, h.name, formatValue(bound))
			v, ok := samples[series]
			if !ok {
				t.Errorf("bucket %s absent", series)
				continue
			}
			if v < prev {
				t.Errorf("bucket %s = %v below previous %v (not cumulative)", series, v, prev)
			}
			prev = v
		}
		inf := samples[fmt.Sprintf(`%s_bucket{library="44-3",le="+Inf"}`, h.name)]
		count := samples[fmt.Sprintf(`%s_count{library="44-3"}`, h.name)]
		if inf != count || count == 0 {
			t.Errorf("%s: +Inf bucket %v != count %v (or zero)", h.name, inf, count)
		}
		if inf < prev {
			t.Errorf("%s: +Inf bucket %v below last bound %v", h.name, inf, prev)
		}
	}
}

// TestHistogramQuantile pins the estimator that replaced the
// sort-based window: interpolated mid-bucket estimates, clamping at
// the last bound, and zero on empty.
func TestHistogramQuantile(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	if q := h.quantile(0.5); q != 0 {
		t.Errorf("empty histogram quantile = %v, want 0", q)
	}
	// 100 observations uniformly in (1,2]: the median interpolates
	// inside the second bucket.
	for i := 0; i < 100; i++ {
		h.observe(1.5)
	}
	if q := h.quantile(0.5); q < 1 || q > 2 {
		t.Errorf("median = %v, want within (1,2]", q)
	}
	if q := h.quantile(0.99); q < 1.9 || q > 2 {
		t.Errorf("p99 = %v, want near bucket top 2", q)
	}
	// Overflow observations clamp to the last bound.
	h2 := newHistogram([]float64{1, 2, 4})
	h2.observe(100)
	if q := h2.quantile(0.5); q != 4 {
		t.Errorf("overflow quantile = %v, want clamp to 4", q)
	}
	// Sum and count track every observation.
	if h.n != 100 || math.Abs(h.sum-150) > 1e-9 {
		t.Errorf("n=%d sum=%v, want 100 and 150", h.n, h.sum)
	}
}

// TestStatsQuantilesFromHistogram checks /stats still reports p50/p99
// and that one request lands them in a plausible latency range.
func TestStatsQuantilesFromHistogram(t *testing.T) {
	s := New(Config{Concurrency: 2})
	code, _, body := post(t, s.Handler(), nil, MapRequest{
		BLIF: blifOf(t, bench.RippleAdder(8)), Library: "44-3",
	})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	snap := s.Stats()
	lib, ok := snap.Libraries["44-3"]
	if !ok {
		t.Fatalf("no 44-3 library snapshot: %+v", snap.Libraries)
	}
	if lib.Requests != 1 {
		t.Errorf("requests = %d, want 1", lib.Requests)
	}
	if lib.P50Millis <= 0 || lib.P99Millis < lib.P50Millis {
		t.Errorf("quantiles p50=%v p99=%v, want 0 < p50 <= p99", lib.P50Millis, lib.P99Millis)
	}
	if snap.PhaseMillis["map"] <= 0 {
		t.Errorf("phase_ms[map] = %v, want > 0", snap.PhaseMillis["map"])
	}
}

// TestTraceIDAndAccessLog checks the per-request trace id appears in
// the X-Trace-ID header, the response body, and the structured access
// log; that the record says how the request was served (result, result
// cache tier, subject digest, engine phases) or why it failed; and that
// a slow-request threshold promotes the record to WARN.
func TestTraceIDAndAccessLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	// SlowRequest of 1ns: every request is "slow", so the test can
	// assert the Warn path deterministically.
	s := New(Config{Concurrency: 2, Logger: logger, SlowRequest: time.Nanosecond})

	body, err := json.Marshal(MapRequest{BLIF: blifOf(t, bench.RippleAdder(4)), Library: "44-3"})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("map = %d: %s", w.Code, w.Body.String())
	}
	headerID := w.Header().Get("X-Trace-ID")
	if len(headerID) != 16 {
		t.Fatalf("X-Trace-ID = %q, want 16 hex chars", headerID)
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TraceID != headerID {
		t.Errorf("body trace_id %q != header %q", resp.TraceID, headerID)
	}

	var rec struct {
		Level       string  `json:"level"`
		Msg         string  `json:"msg"`
		TraceID     string  `json:"trace_id"`
		Status      int     `json:"status"`
		Result      string  `json:"result"`
		Error       *string `json:"error"`
		Library     string  `json:"library"`
		ResultCache string  `json:"result_cache"`
		SubjectSHA  string  `json:"subject_sha"`
		TotalMS     float64 `json:"total_ms"`
		MapMS       float64 `json:"map_ms"`
		LabelMS     float64 `json:"label_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("access log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if rec.Level != "WARN" || rec.Msg != "slow mapping request" {
		t.Errorf("log level/msg = %s/%q, want WARN slow record", rec.Level, rec.Msg)
	}
	if rec.TraceID != headerID {
		t.Errorf("log trace_id %q != header %q", rec.TraceID, headerID)
	}
	if rec.Status != http.StatusOK || rec.Library != "44-3" {
		t.Errorf("log status/library = %d/%q", rec.Status, rec.Library)
	}
	if rec.TotalMS <= 0 || rec.MapMS <= 0 || rec.MapMS > rec.TotalMS {
		t.Errorf("log millis total=%v map=%v, want 0 < map <= total", rec.TotalMS, rec.MapMS)
	}
	if rec.Result != "ok" || rec.Error != nil || rec.ResultCache != "miss" || rec.SubjectSHA != resp.SubjectSHA {
		t.Errorf("log result/error/result_cache/subject_sha = %q/%v/%q/%q, want ok/absent/miss/%q",
			rec.Result, rec.Error, rec.ResultCache, rec.SubjectSHA, resp.SubjectSHA)
	}
	if rec.LabelMS <= 0 {
		t.Errorf("log label_ms = %v on a miss, want > 0", rec.LabelMS)
	}
	var fields map[string]any
	if err := json.Unmarshal(logBuf.Bytes(), &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields["label_wall_ms"]; ok {
		t.Errorf("log repeats the label time as label_wall_ms: %s", logBuf.String())
	}

	// A rejected request's record names its result and error.
	logBuf.Reset()
	if code, _, _ := post(t, s.Handler(), nil, MapRequest{BLIF: "garbage"}); code != http.StatusBadRequest {
		t.Fatalf("garbage map = %d, want 400", code)
	}
	rec.Error = nil
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("400 access log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if rec.Status != http.StatusBadRequest || rec.Result != "bad_request" || rec.Error == nil || *rec.Error == "" {
		t.Errorf("400 log status/result/error = %d/%q/%v", rec.Status, rec.Result, rec.Error)
	}

	// A batch item logs one record carrying its index, name and the
	// parent job's id as its trace id. Its circuit differs from the
	// /map request's, so the engine runs rather than the result cache.
	logBuf.Reset()
	code, acc, jbody := postJob(t, s.Handler(), JobRequest{Library: "44-3",
		Items: []JobItemRequest{{Name: "cmp", BLIF: blifOf(t, bench.Comparator(4))}}})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, jbody)
	}
	if st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, 30*time.Second); !ok || st.State != "done" {
		t.Fatalf("job settled as %+v", st)
	}
	var item struct {
		Level     string  `json:"level"`
		Msg       string  `json:"msg"`
		TraceID   string  `json:"trace_id"`
		ItemIndex *int    `json:"item_index"`
		ItemName  string  `json:"item_name"`
		Status    int     `json:"status"`
		MapMS     float64 `json:"map_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &item); err != nil {
		t.Fatalf("item access log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	if item.Level != "WARN" || item.Msg != "slow job item" {
		t.Errorf("item log level/msg = %s/%q, want WARN slow job item", item.Level, item.Msg)
	}
	if item.TraceID != acc.JobID || item.ItemIndex == nil || *item.ItemIndex != 0 || item.ItemName != "cmp" {
		t.Errorf("item log trace_id/index/name = %q/%v/%q, want %q/0/cmp", item.TraceID, item.ItemIndex, item.ItemName, acc.JobID)
	}
	if item.Status != http.StatusOK || item.MapMS <= 0 {
		t.Errorf("item log status/map_ms = %d/%v", item.Status, item.MapMS)
	}
}
