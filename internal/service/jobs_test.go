package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/jobs"
	"dagcover/internal/network"
)

// postJob submits a batch job directly to the handler and decodes the
// 202 body.
func postJob(t *testing.T, h http.Handler, req JobRequest) (int, JobAccepted, string) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var acc JobAccepted
	if w.Code == http.StatusAccepted {
		if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
			t.Fatalf("bad 202 body: %v\n%s", err, w.Body.String())
		}
	}
	return w.Code, acc, w.Body.String()
}

// itemResponse decodes a job record's embedded response; nil when the
// record carries none.
func itemResponse(t *testing.T, rec JobItemRecord) *MapResponse {
	t.Helper()
	if rec.Response == nil {
		return nil
	}
	var resp MapResponse
	if err := json.Unmarshal(rec.Response, &resp); err != nil {
		t.Fatalf("record %d: bad response: %v\n%s", rec.Index, err, rec.Response)
	}
	return &resp
}

// jobState polls GET /jobs/{id} once.
func jobState(t *testing.T, h http.Handler, id string) (JobStatusResponse, int) {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var st JobStatusResponse
	if w.Code == http.StatusOK {
		if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
			t.Fatalf("bad status body: %v\n%s", err, w.Body.String())
		}
	}
	return st, w.Code
}

// waitJobTerminal polls until the job reaches a terminal state (or the
// store already dropped it, in which case ok is false).
func waitJobTerminal(t *testing.T, h http.Handler, id string, within time.Duration) (JobStatusResponse, bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		st, code := jobState(t, h, id)
		if code == http.StatusNotFound {
			return JobStatusResponse{}, false
		}
		switch st.State {
		case "done", "failed", "cancelled":
			return st, true
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not settle within %v", id, within)
	return JobStatusResponse{}, false
}

// iscasBatch is the acceptance batch: eight ISCAS'85 netlists (c432
// twice under distinct names — the suite members that round-trip
// through the BLIF writer).
func iscasBatch(t *testing.T) []JobItemRequest {
	t.Helper()
	gens := []struct {
		name string
		gen  func() *network.Network
	}{
		{"c432", bench.C432}, {"c880", bench.C880}, {"c2670", bench.C2670},
		{"c3540", bench.C3540}, {"c5315", bench.C5315}, {"c6288", bench.C6288},
		{"c7552", bench.C7552}, {"c432-again", bench.C432},
	}
	items := make([]JobItemRequest, len(gens))
	for i, g := range gens {
		items[i] = JobItemRequest{Name: g.name, BLIF: blifOf(t, g.gen())}
	}
	return items
}

// TestBatchJobMatchesSyncAndCompilesOnce is the tentpole acceptance
// test: a batch of 8 ISCAS netlists compiles the shared library exactly
// once, every per-item result is byte-identical to what the synchronous
// /map endpoint returns for the same input, and the NDJSON stream
// carries one record per item in submission order.
func TestBatchJobMatchesSyncAndCompilesOnce(t *testing.T) {
	items := iscasBatch(t)

	// Reference results from the synchronous path on its own server.
	// Both servers run with the whole-result cache off: the point here
	// is engine-path equivalence, and the duplicate c432 item must map
	// (with full phase breakdowns), not replay a cached result
	// (resultcache_test.go covers batch cache hits).
	syncSrv := New(Config{Concurrency: 2, ResultCacheBytes: -1})
	want := make([]MapResponse, len(items))
	for i, it := range items {
		code, resp, body := post(t, syncSrv.Handler(), nil, MapRequest{BLIF: it.BLIF, Library: "44-1"})
		if code != http.StatusOK {
			t.Fatalf("sync map of %s = %d: %s", it.Name, code, body)
		}
		want[i] = resp
	}

	// Fresh server: the batch must trigger exactly one compile.
	s := New(Config{Concurrency: 2, ResultCacheBytes: -1})
	code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Library: "44-1"})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if acc.Items != len(items) || acc.JobID == "" {
		t.Fatalf("bad acceptance: %+v", acc)
	}

	st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, time.Minute)
	if !ok || st.State != "done" {
		t.Fatalf("job state = %q (found=%v), want done", st.State, ok)
	}
	if st.Completed != len(items) || st.Failed != 0 {
		t.Fatalf("completed=%d failed=%d, want %d/0", st.Completed, st.Failed, len(items))
	}
	for i, is := range st.ItemState {
		if is.State != "done" || is.Status != http.StatusOK {
			t.Fatalf("item %d status = %+v", i, is)
		}
		if is.PhaseMillis == nil {
			t.Fatalf("item %d has no phase breakdown", i)
		}
		for _, phase := range []string{"parse", "map", "label", "cover", "emit"} {
			if _, present := is.PhaseMillis[phase]; !present {
				t.Errorf("item %d phase breakdown missing %q: %v", i, phase, is.PhaseMillis)
			}
		}
		if _, present := is.PhaseMillis["label_wall"]; present {
			t.Errorf("item %d phase breakdown repeats the label time as label_wall: %v", i, is.PhaseMillis)
		}
	}

	if hits, misses, compiles := s.Cache().Counters(); compiles != 1 || misses != 1 {
		t.Fatalf("cache counters hits=%d misses=%d compiles=%d; want exactly one compile for the whole batch", hits, misses, compiles)
	}

	// Stream the results and compare against the sync references.
	r := httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("result stream = %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type = %q", ct)
	}
	var recs []JobItemRecord
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec JobItemRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON record: %v\n%s", err, sc.Text())
		}
		recs = append(recs, rec)
	}
	if len(recs) != len(items) {
		t.Fatalf("stream carried %d records, want %d", len(recs), len(items))
	}
	for i, rec := range recs {
		if rec.Index != i || rec.Name != items[i].Name || rec.Status != http.StatusOK || rec.Response == nil {
			t.Fatalf("record %d = index %d name %q status %d", i, rec.Index, rec.Name, rec.Status)
		}
		got, ref := itemResponse(t, rec), want[i]
		if got.Netlist != ref.Netlist {
			t.Errorf("item %s: batch netlist differs from sync /map netlist", items[i].Name)
		}
		if got.Delay != ref.Delay || got.Area != ref.Area || got.Cells != ref.Cells {
			t.Errorf("item %s: batch metrics (%v,%v,%v) != sync (%v,%v,%v)",
				items[i].Name, got.Delay, got.Area, got.Cells, ref.Delay, ref.Area, ref.Cells)
		}
	}

	// The jobs stats block saw it all.
	stats := s.Stats()
	if stats.Jobs.Submitted != 1 || stats.Jobs.Done != 1 || stats.Jobs.ItemsOK != uint64(len(items)) {
		t.Errorf("stats jobs = %+v", stats.Jobs)
	}
	// Batch work must not inflate the sync request counters: the
	// submission is one received request, its items are none.
	if stats.Requests.OK != 0 || stats.Requests.Total != 1 {
		t.Errorf("batch inflated /map counters: %+v", stats.Requests)
	}
}

// TestJobResultStreamIsIncremental submits [fast, slow] and shows the
// fast item's record arrives over the wire while the slow item is still
// mapping — the stream does not wait for the batch to finish.
func TestJobResultStreamIsIncremental(t *testing.T) {
	s := New(Config{Concurrency: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	items := []JobItemRequest{
		{Name: "fast", BLIF: blifOf(t, bench.Comparator(4))},
		{Name: "slow", BLIF: blifOf(t, bench.ArrayMultiplier(48))},
	}
	code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Library: "lib2", Memo: memoOff})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + acc.JobID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	line, err := rd.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading first record: %v", err)
	}
	var first JobItemRecord
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatalf("bad first record: %v", err)
	}
	if first.Name != "fast" || first.Status != http.StatusOK {
		t.Fatalf("first record = %+v", first)
	}
	// The slow item (a 48-bit multiplier with the memo off) is still
	// running when the fast record arrives.
	st, _ := jobState(t, s.Handler(), acc.JobID)
	if st.State == "done" {
		t.Log("warning: slow item finished before the state probe; incrementality not distinguishable on this run")
	} else if st.State != "running" {
		t.Fatalf("job state after first record = %q, want running", st.State)
	}
	if _, err := rd.ReadBytes('\n'); err != nil {
		t.Fatalf("reading second record: %v", err)
	}
	if st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, time.Minute); !ok || st.State != "done" {
		t.Fatalf("final state = %q", st.State)
	}
}

// TestJobCancellation covers DELETE in both phases: a job cancelled
// while queued (admission slots all held) settles every item as 499
// without mapping anything, and a running job stops promptly with its
// finished items preserved.
func TestJobCancellation(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		s := New(Config{Concurrency: 1})
		// Hold the only run slot so the job blocks in admission.
		if err := s.adm.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		defer s.adm.release()

		items := []JobItemRequest{
			{Name: "a", BLIF: blifOf(t, bench.Comparator(4))},
			{Name: "b", BLIF: blifOf(t, bench.Comparator(4))},
		}
		code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items})
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d: %s", code, body)
		}
		if st, _ := jobState(t, s.Handler(), acc.JobID); st.State != "queued" {
			t.Fatalf("state with slots held = %q, want queued", st.State)
		}

		r := httptest.NewRequest(http.MethodDelete, "/jobs/"+acc.JobID, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("DELETE = %d: %s", w.Code, w.Body.String())
		}

		st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, 5*time.Second)
		if !ok || st.State != "cancelled" {
			t.Fatalf("state after DELETE = %q, want cancelled", st.State)
		}
		for _, is := range st.ItemState {
			if is.State != "cancelled" || is.Status != jobs.StatusClientClosedRequest {
				t.Errorf("queued-cancelled item = %+v, want cancelled/499", is)
			}
		}
	})

	t.Run("running", func(t *testing.T) {
		s := New(Config{Concurrency: 2})
		items := []JobItemRequest{
			{Name: "fast", BLIF: blifOf(t, bench.Comparator(4))},
			{Name: "slow", BLIF: blifOf(t, bench.ArrayMultiplier(48))},
			{Name: "never", BLIF: blifOf(t, bench.Comparator(4))},
		}
		code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Memo: memoOff})
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d: %s", code, body)
		}
		// Wait until the fast item is done (the slow one is mapping).
		deadline := time.Now().Add(30 * time.Second)
		for {
			st, _ := jobState(t, s.Handler(), acc.JobID)
			if st.Completed >= 1 || st.State == "done" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("first item never settled")
			}
			time.Sleep(time.Millisecond)
		}
		cancelAt := time.Now()
		r := httptest.NewRequest(http.MethodDelete, "/jobs/"+acc.JobID, nil)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("DELETE = %d", w.Code)
		}
		st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, 10*time.Second)
		if !ok || st.State != "cancelled" {
			t.Fatalf("state after DELETE = %q, want cancelled", st.State)
		}
		// "Promptly": the in-flight mapping polls its context every few
		// dozen nodes, so settling must not take anywhere near the full mapping time.
		if took := time.Since(cancelAt); took > 5*time.Second {
			t.Errorf("cancellation took %v", took)
		}
		if st.ItemState[0].State != "done" {
			t.Errorf("finished item was rewritten: %+v", st.ItemState[0])
		}
		for _, is := range st.ItemState[1:] {
			if is.Status != jobs.StatusClientClosedRequest {
				t.Errorf("unfinished item = %+v, want 499", is)
			}
		}
	})
}

// TestJobTTLEvictionAtServiceLevel pins retention end to end: with a
// tiny TTL the finished job's results stream fine, and the next status
// poll after the sweep crosses the TTL is a 404.
func TestJobTTLEvictionAtServiceLevel(t *testing.T) {
	s := New(Config{Concurrency: 2, JobTTL: time.Nanosecond})
	code, acc, body := postJob(t, s.Handler(), JobRequest{BLIF: blifOf(t, bench.Comparator(4))})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	// Stream the full result first (one Get, then waits on the job
	// pointer — eviction cannot yank it mid-stream).
	r := httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK || !bytes.Contains(w.Body.Bytes(), []byte(`"status":200`)) {
		t.Fatalf("result stream = %d: %s", w.Code, w.Body.String())
	}
	// The job finished at least a nanosecond ago, so the very next poll
	// sweeps it.
	if _, code := jobState(t, s.Handler(), acc.JobID); code != http.StatusNotFound {
		t.Fatalf("status after TTL = %d, want 404", code)
	}
	if s.Jobs().Evictions() == 0 {
		t.Error("no eviction recorded")
	}
}

// TestJobValidation covers the 4xx surface of the jobs API.
func TestJobValidation(t *testing.T) {
	s := New(Config{Concurrency: 1, MaxBatchItems: 2})
	h := s.Handler()
	small := blifOf(t, bench.Comparator(4))

	cases := []struct {
		name string
		req  JobRequest
		want int
	}{
		{"empty", JobRequest{}, http.StatusBadRequest},
		{"both blif and items", JobRequest{BLIF: small, Items: []JobItemRequest{{BLIF: small}}}, http.StatusBadRequest},
		{"over batch limit", JobRequest{Items: []JobItemRequest{{BLIF: small}, {BLIF: small}, {BLIF: small}}}, http.StatusBadRequest},
		{"blank item", JobRequest{Items: []JobItemRequest{{BLIF: small}, {BLIF: "  "}}}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, _, body := postJob(t, h, tc.req); code != tc.want {
			t.Errorf("%s = %d, want %d: %s", tc.name, code, tc.want, body)
		}
	}

	// Unknown ids and unsupported methods.
	for _, probe := range []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/jobs/deadbeef", http.StatusNotFound},
		{http.MethodGet, "/jobs/deadbeef/result", http.StatusNotFound},
		{http.MethodDelete, "/jobs/deadbeef", http.StatusNotFound},
		{http.MethodGet, "/jobs", http.StatusMethodNotAllowed},
		{http.MethodPut, "/jobs/deadbeef", http.StatusMethodNotAllowed},
		{http.MethodGet, "/jobs/deadbeef/bogus", http.StatusMethodNotAllowed},
	} {
		r := httptest.NewRequest(probe.method, probe.path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != probe.want {
			t.Errorf("%s %s = %d, want %d", probe.method, probe.path, w.Code, probe.want)
		}
	}

	// A batch with a bad library fails as a job, not at submit.
	code, acc, body := postJob(t, h, JobRequest{BLIF: small, Library: "no-such-lib"})
	if code != http.StatusAccepted {
		t.Fatalf("bad-library submit = %d: %s", code, body)
	}
	st, ok := waitJobTerminal(t, h, acc.JobID, 10*time.Second)
	if !ok || st.State != "failed" || st.Error == "" {
		t.Fatalf("bad-library job = %q err=%q, want failed", st.State, st.Error)
	}
	for _, is := range st.ItemState {
		if is.Status != http.StatusBadRequest {
			t.Errorf("bad-library item = %+v, want 400", is)
		}
	}

	// A bad item inside an otherwise good batch fails alone.
	code, acc, _ = postJob(t, h, JobRequest{Items: []JobItemRequest{
		{Name: "good", BLIF: small},
		{Name: "bad", BLIF: ".model broken\n.inputs a\n.outputs"},
	}})
	if code != http.StatusAccepted {
		t.Fatalf("mixed batch submit = %d", code)
	}
	st, _ = waitJobTerminal(t, h, acc.JobID, 10*time.Second)
	if st.State != "done" {
		t.Fatalf("mixed batch = %q, want done (one survivor)", st.State)
	}
	if st.ItemState[0].Status != http.StatusOK || st.ItemState[1].Status != http.StatusBadRequest {
		t.Fatalf("mixed batch items = %+v", st.ItemState)
	}
}

// TestJobStoreSubmitShed fills the store with active jobs and checks
// the next submission sheds with 429.
func TestJobStoreSubmitShed(t *testing.T) {
	s := New(Config{Concurrency: 1, MaxJobs: 2})
	// Hold the run slot so admitted jobs stay queued (active) forever.
	if err := s.adm.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer s.adm.release()
	small := blifOf(t, bench.Comparator(4))
	for i := 0; i < 2; i++ {
		if code, _, body := postJob(t, s.Handler(), JobRequest{BLIF: small}); code != http.StatusAccepted {
			t.Fatalf("submit %d = %d: %s", i, code, body)
		}
	}
	code, _, body := postJob(t, s.Handler(), JobRequest{BLIF: small})
	if code != http.StatusTooManyRequests {
		t.Fatalf("submit over MaxJobs = %d, want 429: %s", code, body)
	}
}

// TestJobLifecycleUnderRace hammers the whole lifecycle concurrently —
// submissions, status polls, result streams, cancels — and then checks
// every job settled coherently. Run with -race this is the data-race
// acceptance test for the subsystem.
func TestJobLifecycleUnderRace(t *testing.T) {
	s := New(Config{Concurrency: 4, MaxJobs: 64})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	small := blifOf(t, bench.Comparator(4))
	medium := blifOf(t, bench.RippleAdder(16))

	const submitters = 6
	const jobsEach = 4
	var wg sync.WaitGroup
	ids := make(chan string, submitters*jobsEach)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				blif := small
				if (g+i)%2 == 0 {
					blif = medium
				}
				req := JobRequest{Items: []JobItemRequest{
					{Name: fmt.Sprintf("g%d-i%d-a", g, i), BLIF: blif},
					{Name: fmt.Sprintf("g%d-i%d-b", g, i), BLIF: small},
				}}
				code, acc, _ := postJob(t, s.Handler(), req)
				if code != http.StatusAccepted {
					continue // store full under contention is legal
				}
				ids <- acc.JobID

				// Interleave: poll, stream, sometimes cancel.
				switch (g + i) % 3 {
				case 0:
					jobState(t, s.Handler(), acc.JobID)
				case 1:
					resp, err := http.Get(ts.URL + "/jobs/" + acc.JobID + "/result")
					if err == nil {
						sc := bufio.NewScanner(resp.Body)
						for sc.Scan() {
						}
						resp.Body.Close()
					}
				case 2:
					r := httptest.NewRequest(http.MethodDelete, "/jobs/"+acc.JobID, nil)
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, r)
				}
			}
		}(g)
	}
	wg.Wait()
	close(ids)

	for id := range ids {
		st, ok := waitJobTerminal(t, s.Handler(), id, 30*time.Second)
		if !ok {
			continue // evicted under pressure — legal
		}
		switch st.State {
		case "done", "cancelled", "failed":
		default:
			t.Errorf("job %s settled as %q", id, st.State)
		}
		for _, is := range st.ItemState {
			switch is.State {
			case "done":
				if is.Status != http.StatusOK {
					t.Errorf("job %s done item status %d", id, is.Status)
				}
			case "cancelled":
				if is.Status != jobs.StatusClientClosedRequest {
					t.Errorf("job %s cancelled item status %d, want 499", id, is.Status)
				}
			case "failed":
			default:
				t.Errorf("job %s terminal with item state %q", id, is.State)
			}
		}
	}
	// Exercise the stats/metrics readers against whatever state remains.
	st := s.Stats()
	var b strings.Builder
	writeMetrics(&b, &st)
	if !strings.Contains(b.String(), "mapd_jobs_submitted_total") {
		t.Error("metrics exposition missing job families")
	}
}
