package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/obs/obstest"
)

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

func TestJobItemsCarryJobTraceID(t *testing.T) {
	var logBuf bytes.Buffer
	s := New(Config{Concurrency: 2, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
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

	// Each item also wrote one access-log record under the job's id.
	names := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec struct {
			Msg      string `json:"msg"`
			TraceID  string `json:"trace_id"`
			ItemName string `json:"item_name"`
			Result   string `json:"result"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad access-log record: %v\n%s", err, line)
		}
		if rec.Msg != "job item" {
			continue
		}
		if rec.TraceID != acc.JobID || rec.Result != "ok" {
			t.Errorf("job item record trace_id/result = %q/%q, want %q/ok", rec.TraceID, rec.Result, acc.JobID)
		}
		names[rec.ItemName] = true
	}
	if len(names) != 2 || !names["a"] || !names["b"] {
		t.Fatalf("job item records name %v, want a and b", names)
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
	} {
		if !strings.Contains(out, "\n"+fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

func TestExpositionLints(t *testing.T) {
	// Drive the ok and error paths, then the full exposition must lint
	// as valid 0.0.4.
	s := New(Config{Concurrency: 2})
	t.Cleanup(s.Close)
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
}
