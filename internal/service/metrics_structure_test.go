package service

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
)

var updateMetricsGolden = flag.Bool("update-metrics-golden", false, "rewrite testdata/metrics_structure.golden")

// driveEveryFamily builds a server with the result cache and an
// artifact store, and drives it through one ok /map, one 400, one
// result-cache hit and one two-item job, so every metric family has
// its series.
func driveEveryFamily(t *testing.T) *Server {
	t.Helper()
	s := New(Config{
		Concurrency: 2,
		Store:       openStore(t, t.TempDir()),
	})
	t.Cleanup(s.Close)
	h := s.Handler()
	ok := MapRequest{BLIF: blifOf(t, bench.Comparator(6)), Library: "44-1"}
	if code, _, body := post(t, h, nil, ok); code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	if code, _, _ := post(t, h, nil, MapRequest{BLIF: "garbage"}); code != http.StatusBadRequest {
		t.Fatalf("garbage map = %d, want 400", code)
	}
	if code, resp, body := post(t, h, nil, ok); code != http.StatusOK || resp.ResultCache != resultHitMem {
		t.Fatalf("repeat map = %d (result_cache %q): %s", code, resp.ResultCache, body)
	}
	code, acc, body := postJob(t, h, JobRequest{Library: "lib2", Items: []JobItemRequest{
		{Name: "a", BLIF: blifOf(t, bench.Comparator(4))},
		{Name: "b", BLIF: blifOf(t, bench.RippleAdder(4))},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if st, ok := waitJobTerminal(t, h, acc.JobID, 30*time.Second); !ok || st.State != "done" {
		t.Fatalf("job settled as %+v", st)
	}
	return s
}

// buildInfoLabels matches mapd_build_info's label block, whose values
// depend on the toolchain that built the test.
var buildInfoLabels = regexp.MustCompile(`^mapd_build_info\{go_version="[^"]*",version="[^"]*"\}`)

// expositionStructure reduces an exposition to its structure: every
// HELP and TYPE line, and every series with its labels but without its
// value, in exposition order.
func expositionStructure(body string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			line = buildInfoLabels.ReplaceAllString(line, `mapd_build_info{go_version="*",version="*"}`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsStructureGolden pins the /metrics structure — family
// names, HELP and TYPE text, label sets and family order — against a
// committed golden file, so a change to how the exposition is built
// cannot silently change what scrapers see. Rerun with
// -update-metrics-golden after an intended change.
func TestMetricsStructureGolden(t *testing.T) {
	s := driveEveryFamily(t)
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	got := expositionStructure(w.Body.String())
	path := filepath.Join("testdata", "metrics_structure.golden")
	if *updateMetricsGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update-metrics-golden)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("exposition structure differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
			}
		}
	}
}

// TestStatsAndMetricsAgree renders one snapshot both ways and checks
// that every counter present in both encodings reads the same value.
func TestStatsAndMetricsAgree(t *testing.T) {
	s := driveEveryFamily(t)
	st := s.Stats()
	blob, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	writeMetrics(&b, &st)
	samples := parseExposition(t, b.String())

	// jsonAt reads a dotted path of the /stats document.
	jsonAt := func(path string) float64 {
		var v any = doc
		for _, key := range strings.Split(path, ".") {
			m, ok := v.(map[string]any)
			if !ok {
				t.Fatalf("/stats has no %s", path)
			}
			v = m[key]
		}
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("/stats %s = %v, want a number", path, v)
		}
		return f
	}
	pairs := map[string]string{
		"requests.total":                "mapd_requests_received_total",
		"patterns_tried":                "mapd_patterns_tried_total",
		"memo.hits":                     "mapd_memo_hits_total",
		"memo.misses":                   "mapd_memo_misses_total",
		"cache.libraries":               "mapd_cache_libraries",
		"cache.hits":                    "mapd_cache_hits_total",
		"cache.misses":                  "mapd_cache_misses_total",
		"cache.compiles":                "mapd_cache_compiles_total",
		"queue.running":                 "mapd_queue_running",
		"queue.queued":                  "mapd_queue_queued",
		"queue.concurrency":             "mapd_queue_concurrency",
		"queue.queue_capacity":          "mapd_queue_capacity",
		"jobs.submitted":                "mapd_jobs_submitted_total",
		"jobs.done":                     `mapd_jobs_completed_total{state="done"}`,
		"jobs.failed":                   `mapd_jobs_completed_total{state="failed"}`,
		"jobs.cancelled":                `mapd_jobs_completed_total{state="cancelled"}`,
		"jobs.evicted":                  "mapd_jobs_evicted_total",
		"jobs.items_ok":                 `mapd_job_items_total{result="ok"}`,
		"jobs.items_failed":             `mapd_job_items_total{result="failed"}`,
		"jobs.items_timeout":            `mapd_job_items_total{result="timeout"}`,
		"jobs.items_cancelled":          `mapd_job_items_total{result="cancelled"}`,
		"jobs.by_state.done":            `mapd_jobs_current{state="done"}`,
		"result_cache.mem_hits":         `mapd_result_cache_hits_total{tier="mem"}`,
		"result_cache.disk_hits":        `mapd_result_cache_hits_total{tier="disk"}`,
		"result_cache.misses":           "mapd_result_cache_misses_total",
		"result_cache.stores":           "mapd_result_cache_stores_total",
		"result_cache.store_errors":     "mapd_result_cache_store_errors_total",
		"result_cache.entries":          "mapd_result_cache_entries",
		"result_cache.bytes":            "mapd_result_cache_bytes",
		"result_cache.max_bytes":        "mapd_result_cache_max_bytes",
		"store.hits":                    "mapd_store_hits_total",
		"store.writes":                  "mapd_store_writes_total",
		"store.objects":                 "mapd_store_objects",
		"libraries.44-1.requests":       `mapd_requests_by_library_total{library="44-1"}`,
		"libraries.44-1.patterns_tried": `mapd_patterns_tried_by_library_total{library="44-1"}`,
		"runtime.gomaxprocs":            "mapd_go_gomaxprocs",
	}
	for _, name := range resultNames {
		pairs["requests."+name] = fmt.Sprintf(`mapd_requests_total{result=%q}`, name)
	}
	for path, series := range pairs {
		v, ok := samples[series]
		if !ok {
			t.Errorf("exposition has no %s", series)
			continue
		}
		if got := jsonAt(path); got != v {
			t.Errorf("/stats %s = %v, /metrics %s = %v", path, got, series, v)
		}
	}
	if jsonAt("requests.ok") != 2 || jsonAt("jobs.items_ok") != 2 || jsonAt("result_cache.mem_hits") != 1 {
		t.Errorf("driven counters: ok %v, items_ok %v, mem_hits %v; want 2, 2, 1",
			jsonAt("requests.ok"), jsonAt("jobs.items_ok"), jsonAt("result_cache.mem_hits"))
	}
	for _, name := range phaseNames {
		ms := jsonAt("phase_ms." + name)
		sec := samples[fmt.Sprintf(`mapd_phase_seconds_total{phase=%q}`, name)]
		if math.Abs(ms-1000*sec) > 1e-9*math.Max(1, ms) {
			t.Errorf("phase %s: phase_ms %v != 1000 x %v seconds", name, ms, sec)
		}
	}
}

// TestLookupErrorsAreNotMappingRequests checks that job lookups and
// unknown paths leave the mapping request counters alone: they are
// neither received nor finished mapping requests.
func TestLookupErrorsAreNotMappingRequests(t *testing.T) {
	s := New(Config{Concurrency: 1})
	for _, c := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/jobs/nope", http.StatusNotFound},
		{http.MethodDelete, "/jobs/nope", http.StatusNotFound},
		{http.MethodGet, "/jobs/x/bogus", http.StatusMethodNotAllowed},
		// The retired wide-event ring's path is an unknown path now.
		{http.MethodGet, "/debug/" + "events", http.StatusNotFound},
	} {
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, httptest.NewRequest(c.method, c.path, nil))
		if w.Code != c.want {
			t.Errorf("%s %s = %d, want %d", c.method, c.path, w.Code, c.want)
		}
	}
	if got := s.Stats().Requests; got != (StatsSnapshot{}).Requests {
		t.Errorf("request counters after lookups = %+v, want all zero", got)
	}
}

// TestRequestsReceivedAccountsForEveryRequest checks the received
// counter against the finished ones once the server is quiet: every
// /map or /jobs request is received once and then either finishes by
// result or becomes a submitted job, so received = Σ results +
// submitted, with rejections at /jobs included.
func TestRequestsReceivedAccountsForEveryRequest(t *testing.T) {
	s := New(Config{Concurrency: 2, MaxRequestBytes: 64 << 10})
	t.Cleanup(s.Close)
	h := s.Handler()
	small := blifOf(t, bench.Comparator(4))
	if code, _, body := post(t, h, nil, MapRequest{BLIF: small}); code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	if code, _, _ := post(t, h, nil, MapRequest{BLIF: "garbage"}); code != http.StatusBadRequest {
		t.Fatalf("garbage map = %d, want 400", code)
	}
	code, acc, body := postJob(t, h, JobRequest{Items: []JobItemRequest{{Name: "a", BLIF: small}}})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if st, ok := waitJobTerminal(t, h, acc.JobID, 30*time.Second); !ok || st.State != "done" {
		t.Fatalf("job settled as %+v", st)
	}
	if code, _, _ := postJob(t, h, JobRequest{}); code != http.StatusBadRequest {
		t.Fatalf("empty job = %d, want 400", code)
	}
	huge := `{"blif":"` + strings.Repeat("a", 128<<10) + `"}`
	for _, c := range []struct {
		method, path, body string
		want               int
	}{
		{http.MethodGet, "/map", "", http.StatusMethodNotAllowed},
		{http.MethodGet, "/jobs", "", http.StatusMethodNotAllowed},
		{http.MethodPost, "/map", huge, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/jobs", huge, http.StatusRequestEntityTooLarge},
		{http.MethodPost, "/jobs", "{", http.StatusBadRequest},
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if w.Code != c.want {
			t.Fatalf("%s %s = %d, want %d", c.method, c.path, w.Code, c.want)
		}
	}
	st := s.Stats()
	r := st.Requests
	finished := r.OK + r.BadRequest + r.TooLarge + r.Overloaded + r.Timeout + r.Canceled + r.Internal
	if r.Total != finished+st.Jobs.Submitted {
		t.Errorf("received %d, want finished %d + jobs submitted %d (%+v)", r.Total, finished, st.Jobs.Submitted, r)
	}
	if r.Total != 9 {
		t.Errorf("received %d requests, want 9", r.Total)
	}
}
