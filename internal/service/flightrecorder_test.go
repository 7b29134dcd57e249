package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/obs"
	"dagcover/internal/obs/obstest"
)

// newDiagServer builds a server with slow-request capture into a temp
// dir and returns both.
func newDiagServer(t *testing.T, cfg Config) (*Server, *obs.DiagRecorder) {
	t.Helper()
	diag, err := obs.NewDiagRecorder(t.TempDir(), obs.DiagOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Diag = diag
	s := New(cfg)
	t.Cleanup(s.Close)
	return s, diag
}

// bundleFor finds and decodes the diagnostics bundle for a trace id.
func bundleFor(t *testing.T, dir, traceID string) (string, obs.DiagBundle) {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.Contains(e.Name(), traceID) {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var b obs.DiagBundle
		if err := json.Unmarshal(blob, &b); err != nil {
			t.Fatalf("bundle %s is not valid JSON: %v", e.Name(), err)
		}
		return e.Name(), b
	}
	t.Fatalf("no bundle for trace %s in %s", traceID, dir)
	return "", obs.DiagBundle{}
}

func TestSlowRequestCaptureBundle(t *testing.T) {
	// Every request is "slow" at a 1ns threshold, so the first mapping
	// must publish a complete bundle keyed by its trace id.
	s, diag := newDiagServer(t, Config{Concurrency: 2, SlowRequest: time.Nanosecond})
	code, resp, body := post(t, s.Handler(), nil, MapRequest{BLIF: blifOf(t, bench.Comparator(6)), Library: "lib2"})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	if resp.TraceID == "" {
		t.Fatal("response has no trace id")
	}

	name, b := bundleFor(t, diag.Dir(), resp.TraceID)
	if b.TraceID != resp.TraceID || b.Event.TraceID != resp.TraceID {
		t.Fatalf("bundle %s trace ids %q/%q, want %q", name, b.TraceID, b.Event.TraceID, resp.TraceID)
	}
	if b.Reason != "slow_request" {
		t.Fatalf("reason = %q, want slow_request", b.Reason)
	}
	if b.Event.Result != "ok" || b.Event.Status != http.StatusOK || !b.Event.Slow {
		t.Fatalf("wide event = %+v, want slow ok/200", b.Event)
	}
	if b.Event.Library != "lib2" || b.Event.Kind != "map" {
		t.Fatalf("event attribution = %q/%q", b.Event.Library, b.Event.Kind)
	}
	if b.Event.PhaseMillis["map"] <= 0 {
		t.Fatalf("event phase breakdown missing map time: %v", b.Event.PhaseMillis)
	}
	// The goroutine dump must look like runtime.Stack output.
	if !strings.Contains(b.GoroutineDump, "goroutine ") {
		t.Fatal("bundle has no goroutine dump")
	}
	// The runtime sample was refreshed at capture time.
	if b.Runtime.Time.IsZero() || b.Runtime.Goroutines <= 0 {
		t.Fatalf("bundle runtime sample = %+v", b.Runtime)
	}
	// The request's span trace is present and valid Chrome trace JSON.
	if len(b.Trace) == 0 {
		t.Fatal("bundle has no trace spans")
	}
	if err := obstest.ValidateChromeTrace(b.Trace); err != nil {
		t.Fatalf("bundle trace spans invalid: %v", err)
	}
	if captures, dropped, _ := diag.Counters(); captures != 1 || dropped != 0 {
		t.Fatalf("counters = %d captures, %d dropped; want 1, 0", captures, dropped)
	}

	// The capture surfaces in /stats.
	snap := s.Stats()
	if snap.Diag == nil || snap.Diag.Captures != 1 || snap.Diag.Bundles != 1 {
		t.Fatalf("stats diag block = %+v", snap.Diag)
	}
}

func TestSLOViolationCaptureAndBurn(t *testing.T) {
	// No slow threshold; the 1ns latency SLO is what trips capture, so
	// the reason must say so, and the burn windows must show the hit.
	s, _ := newDiagServer(t, Config{Concurrency: 2, SLOLatency: time.Nanosecond})
	code, resp, body := post(t, s.Handler(), nil, MapRequest{BLIF: blifOf(t, bench.Comparator(6)), Library: "lib2"})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	_, b := bundleFor(t, s.diag.Dir(), resp.TraceID)
	if b.Reason != "slo_violation" {
		t.Fatalf("reason = %q, want slo_violation", b.Reason)
	}
	snap := s.Stats()
	if len(snap.SLO.Windows) != 2 {
		t.Fatalf("slo windows = %+v, want 5m and 1h", snap.SLO.Windows)
	}
	for _, w := range snap.SLO.Windows {
		if w.Total != 1 || w.Bad != 1 || w.Rate <= 0 {
			t.Fatalf("window %s = %+v, want 1/1 bad with positive burn", w.Window, w)
		}
	}
	if snap.SLO.Goal != 0.99 {
		t.Fatalf("slo goal = %v, want default 0.99", snap.SLO.Goal)
	}
}

func TestCaptureStormRateLimited(t *testing.T) {
	// Six breaching requests under a one-minute rate limit: exactly one
	// bundle lands and the other five are accounted as dropped —
	// captures + dropped must equal the attempts.
	diag, err := obs.NewDiagRecorder(t.TempDir(), obs.DiagOptions{MinInterval: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 2, SlowRequest: time.Nanosecond, Diag: diag})
	t.Cleanup(s.Close)

	const attempts = 6
	blif := blifOf(t, bench.Comparator(4))
	for i := 0; i < attempts; i++ {
		if code, _, body := post(t, s.Handler(), nil, MapRequest{BLIF: blif}); code != http.StatusOK {
			t.Fatalf("map %d = %d: %s", i, code, body)
		}
	}
	captures, dropped, _ := diag.Counters()
	if captures != 1 {
		t.Fatalf("captures = %d, want 1 (rate limit)", captures)
	}
	if captures+dropped != attempts {
		t.Fatalf("captures %d + dropped %d != attempts %d", captures, dropped, attempts)
	}
	files, _ := diag.Usage()
	if files != 1 {
		t.Fatalf("resident bundles = %d, want 1", files)
	}
}

// getJSON fetches a path from the handler and decodes it into out.
func getJSON(t *testing.T, h http.Handler, path string, out any) int {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, w.Body.String())
		}
	}
	return w.Code
}

type eventsResponse struct {
	TotalRecorded uint64          `json:"total_recorded"`
	Capacity      int             `json:"capacity"`
	Returned      int             `json:"returned"`
	Events        []obs.WideEvent `json:"events"`
}

func TestDebugEventsEndpoint(t *testing.T) {
	s := New(Config{Concurrency: 2, EventBuffer: 8})
	t.Cleanup(s.Close)
	blif := blifOf(t, bench.Comparator(6))
	code, okResp, body := post(t, s.Handler(), nil, MapRequest{BLIF: blif})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	if code, _, _ := post(t, s.Handler(), nil, MapRequest{BLIF: "not blif at all"}); code != http.StatusBadRequest {
		t.Fatalf("bad blif = %d, want 400", code)
	}

	var ev eventsResponse
	if code := getJSON(t, s.Handler(), "/debug/events", &ev); code != http.StatusOK {
		t.Fatalf("/debug/events = %d", code)
	}
	if ev.TotalRecorded != 2 || ev.Returned != 2 || ev.Capacity != 8 {
		t.Fatalf("events header = %+v", ev)
	}
	// Newest first: the failing request is events[0].
	if ev.Events[0].Result != "bad_request" || ev.Events[1].Result != "ok" {
		t.Fatalf("event order = %s, %s; want bad_request then ok", ev.Events[0].Result, ev.Events[1].Result)
	}
	if ev.Events[1].TraceID != okResp.TraceID {
		t.Fatalf("ok event trace %q, want %q", ev.Events[1].TraceID, okResp.TraceID)
	}
	if ev.Events[0].Error == "" {
		t.Fatal("failed event carries no error message")
	}

	// ?result= filters, ?limit= bounds.
	var filtered eventsResponse
	getJSON(t, s.Handler(), "/debug/events?result=ok", &filtered)
	if filtered.Returned != 1 || filtered.Events[0].Result != "ok" {
		t.Fatalf("result filter = %+v", filtered.Events)
	}
	var limited eventsResponse
	getJSON(t, s.Handler(), "/debug/events?limit=1", &limited)
	if limited.Returned != 1 || limited.Events[0].Result != "bad_request" {
		t.Fatalf("limit=1 = %+v", limited.Events)
	}
	var bad eventsResponse
	if code := getJSON(t, s.Handler(), "/debug/events?limit=zero", &bad); code != http.StatusBadRequest {
		t.Fatalf("bad limit = %d, want 400", code)
	}
	r := httptest.NewRequest(http.MethodPost, "/debug/events", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST /debug/events = %d, want 405", w.Code)
	}
}

func TestJobItemsCarryJobTraceID(t *testing.T) {
	s := New(Config{Concurrency: 2})
	t.Cleanup(s.Close)
	blif := blifOf(t, bench.Comparator(4))
	body, _ := json.Marshal(map[string]any{
		"items": []map[string]string{{"name": "a", "blif": blif}, {"name": "b", "blif": blif}},
	})
	r := httptest.NewRequest(http.MethodPost, "/jobs", strings.NewReader(string(body)))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", w.Code, w.Body.String())
	}
	var acc JobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		var st JobStatusResponse
		getJSON(t, s.Handler(), "/jobs/"+acc.JobID, &st)
		if st.State == "done" || st.State == "failed" || st.State == "cancelled" {
			if st.State != "done" {
				t.Fatalf("job state = %s", st.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job did not finish")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Every NDJSON record carries the parent job's trace id.
	rr := httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil)
	ww := httptest.NewRecorder()
	s.Handler().ServeHTTP(ww, rr)
	lines := strings.Split(strings.TrimSpace(ww.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("result stream = %d lines, want 2", len(lines))
	}
	for _, line := range lines {
		var rec JobItemRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad NDJSON record: %v", err)
		}
		if rec.TraceID != acc.JobID {
			t.Fatalf("record trace id %q, want job id %q", rec.TraceID, acc.JobID)
		}
		if item := itemResponse(t, rec); item == nil || item.TraceID != acc.JobID {
			t.Fatal("item response missing the job trace id")
		}
	}

	// The items also landed in the wide-event ring, joined by the same id.
	var ev eventsResponse
	getJSON(t, s.Handler(), "/debug/events?kind=job_item", &ev)
	if ev.Returned != 2 {
		t.Fatalf("job_item events = %d, want 2", ev.Returned)
	}
	for _, e := range ev.Events {
		if e.TraceID != acc.JobID || e.Kind != "job_item" {
			t.Fatalf("job item event = %+v", e)
		}
	}
}

func TestBuildInfoSurfaces(t *testing.T) {
	s := New(Config{Concurrency: 1})
	t.Cleanup(s.Close)
	var hz struct {
		GoVersion string `json:"go_version"`
		Version   string `json:"version"`
	}
	if code := getJSON(t, s.Handler(), "/healthz", &hz); code != http.StatusOK {
		t.Fatalf("/healthz = %d", code)
	}
	if !strings.HasPrefix(hz.GoVersion, "go") || hz.Version == "" {
		t.Fatalf("healthz build info = %+v", hz)
	}
	if snap := s.Stats(); snap.Build.GoVersion != hz.GoVersion {
		t.Fatalf("stats build %+v != healthz %+v", snap.Build, hz)
	}
	st := s.Stats()
	var b strings.Builder
	writeMetrics(&b, &st)
	if !strings.Contains(b.String(), `mapd_build_info{go_version="`+hz.GoVersion+`"`) {
		t.Fatal("exposition has no mapd_build_info sample")
	}
}

func TestRuntimeTelemetryInStatsAndMetrics(t *testing.T) {
	s := New(Config{Concurrency: 1})
	t.Cleanup(s.Close)
	snap := s.Stats()
	if snap.Runtime.Goroutines <= 0 || snap.Runtime.TotalBytes == 0 {
		t.Fatalf("stats runtime block = %+v", snap.Runtime)
	}
	var b strings.Builder
	writeMetrics(&b, &snap)
	out := b.String()
	for _, fam := range []string{
		"mapd_go_goroutines", "mapd_go_heap_inuse_bytes", "mapd_go_total_bytes",
		"mapd_go_gc_pause_seconds", "mapd_go_sched_latency_seconds",
		"mapd_slo_burn_rate", "mapd_events_recorded_total",
	} {
		if !strings.Contains(out, "\n"+fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

func TestExpositionLints(t *testing.T) {
	// Drive every code path that emits families — ok, error, diag
	// capture, job — then the full exposition must lint as valid 0.0.4.
	s, _ := newDiagServer(t, Config{Concurrency: 2, SlowRequest: time.Nanosecond})
	blif := blifOf(t, bench.Comparator(6))
	if code, _, body := post(t, s.Handler(), nil, MapRequest{BLIF: blif, Library: "44-1"}); code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	post(t, s.Handler(), nil, MapRequest{BLIF: "garbage"})
	st := s.Stats()
	var b strings.Builder
	writeMetrics(&b, &st)
	if err := obstest.ValidateExposition([]byte(b.String())); err != nil {
		t.Fatalf("exposition failed lint: %v", err)
	}
	// Both requests breached the 1ns threshold, and no rate limit was
	// set, so both captured.
	if !strings.Contains(b.String(), "mapd_diag_captures_total 2") {
		t.Fatal("exposition missing the diag capture counter")
	}
}
