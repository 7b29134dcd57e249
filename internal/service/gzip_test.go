package service

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
)

func gzipped(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestAcceptsGzip(t *testing.T) {
	cases := []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"deflate, gzip", true},
		{"gzip;q=1.0, identity;q=0.5", true},
		{"gzip;q=0", false},
		{"gzip; q=0", false},
		{"gzip;q=0.5", true},
		{"gzip;q=0.0", false},
		{"gzip;q=0.000", false},
		{"gzip;Q=0", false},
		{"deflate", false},
		{"*", false}, // wildcard is not an explicit gzip opt-in here
	}
	for _, tc := range cases {
		if got := acceptsGzip(tc.header); got != tc.want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", tc.header, got, tc.want)
		}
	}
}

// TestGzipRequestBody round-trips a compressed /map request.
func TestGzipRequestBody(t *testing.T) {
	s := New(Config{Concurrency: 2})
	raw, err := json.Marshal(MapRequest{BLIF: blifOf(t, bench.Comparator(6)), Library: "lib2"})
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(gzipped(t, raw)))
	r.Header.Set("Content-Encoding", "gzip")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("gzip request = %d: %s", w.Code, w.Body.String())
	}
	var resp MapResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Netlist == "" {
		t.Fatal("empty netlist from gzip request")
	}

	// Malformed gzip is a 400, not a hang or a 500.
	r = httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader([]byte("not gzip at all")))
	r.Header.Set("Content-Encoding", "gzip")
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("malformed gzip = %d, want 400", w.Code)
	}
}

// TestGzipResponse checks response compression is negotiated via
// Accept-Encoding and the payload survives the round trip.
func TestGzipResponse(t *testing.T) {
	s := New(Config{Concurrency: 2})
	raw, _ := json.Marshal(MapRequest{BLIF: blifOf(t, bench.Comparator(6))})
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(raw))
	r.Header.Set("Accept-Encoding", "gzip")
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("map = %d: %s", w.Code, w.Body.String())
	}
	if ce := w.Header().Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("Content-Encoding = %q, want gzip", ce)
	}
	if v := w.Header().Get("Vary"); !strings.Contains(v, "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", v)
	}
	zr, err := gzip.NewReader(bytes.NewReader(w.Body.Bytes()))
	if err != nil {
		t.Fatalf("response is not valid gzip: %v", err)
	}
	plain, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var resp MapResponse
	if err := json.Unmarshal(plain, &resp); err != nil {
		t.Fatalf("bad decompressed JSON: %v", err)
	}
	if resp.Netlist == "" {
		t.Fatal("empty netlist")
	}

	// Without Accept-Encoding the response stays plain.
	r = httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(raw))
	w = httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if ce := w.Header().Get("Content-Encoding"); ce != "" {
		t.Fatalf("uninvited Content-Encoding = %q", ce)
	}
}

// TestRequestBodyLimits pins the 413 surface on every endpoint: a
// plain oversized body, and a small gzip body that inflates past the
// bound (the decompressed size is what counts).
func TestRequestBodyLimits(t *testing.T) {
	s := New(Config{Concurrency: 2, MaxRequestBytes: 2048})
	h := s.Handler()

	bigBLIF := blifOf(t, bench.ArrayMultiplier(16)) // well over 2 KiB
	raw, _ := json.Marshal(MapRequest{BLIF: bigBLIF})
	if len(raw) <= 2048 {
		t.Fatalf("test body too small: %d bytes", len(raw))
	}

	for _, path := range []string{"/map", "/jobs"} {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized POST %s = %d, want 413: %s", path, w.Code, w.Body.String())
		}
	}

	// Gzip bomb: ~64 KiB of JSON-compatible filler compresses to well
	// under the limit but must still be rejected at the inflated size.
	bomb := []byte(`{"blif":"` + strings.Repeat("a", 64<<10) + `"}`)
	packed := gzipped(t, bomb)
	if len(packed) > 2048 {
		t.Fatalf("bomb did not compress under the limit: %d bytes", len(packed))
	}
	for _, path := range []string{"/map", "/jobs"} {
		r := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(packed))
		r.Header.Set("Content-Encoding", "gzip")
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("gzip bomb POST %s = %d, want 413: %s", path, w.Code, w.Body.String())
		}
	}

	// Within bounds still works (compressed on the wire, small inflated).
	ok, _ := json.Marshal(MapRequest{BLIF: blifOf(t, bench.Comparator(4))})
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(gzipped(t, ok)))
	r.Header.Set("Content-Encoding", "gzip")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("in-bounds gzip request = %d: %s", w.Code, w.Body.String())
	}

	// The 413s surfaced in the stats and exposition.
	if got := s.Stats().Requests.TooLarge; got != 4 {
		t.Errorf("too_large counter = %d, want 4", got)
	}
	st := s.Stats()
	var b strings.Builder
	writeMetrics(&b, &st)
	if !strings.Contains(b.String(), `mapd_requests_total{result="too_large"} 4`) {
		t.Error("exposition missing too_large sample")
	}
}

// TestGzipNDJSONStreamStaysIncremental streams a job's results with
// Accept-Encoding: gzip and shows the first record is decodable from
// the wire before the batch finishes — each flush is a complete gzip
// frame.
func TestGzipNDJSONStreamStaysIncremental(t *testing.T) {
	s := New(Config{Concurrency: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := []JobItemRequest{
		{Name: "fast", BLIF: blifOf(t, bench.Comparator(4))},
		{Name: "slow", BLIF: blifOf(t, bench.ArrayMultiplier(48))},
	}
	code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Memo: memoOff})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/jobs/"+acc.JobID+"/result", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	// DisableCompression keeps the transport from transparently
	// decoding, so the test sees the raw gzip frames.
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}, Timeout: time.Minute}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("stream Content-Encoding = %q, want gzip", ce)
	}
	zr, err := gzip.NewReader(resp.Body)
	if err != nil {
		t.Fatalf("stream is not gzip: %v", err)
	}
	rd := bufio.NewReader(zr)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first gzip record: %v", err)
	}
	var first JobItemRecord
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("bad first record: %v\n%s", err, line)
	}
	if first.Name != "fast" || first.Status != http.StatusOK {
		t.Fatalf("first record = %+v", first)
	}
	if st, _ := jobState(t, s.Handler(), acc.JobID); st.State == "running" {
		// The expected case: record decoded while the batch still runs.
		t.Logf("first record decoded while job still running — flush produced a complete frame")
	}
	if _, err := rd.ReadBytes('\n'); err != nil {
		t.Fatalf("reading second record: %v", err)
	}
}
