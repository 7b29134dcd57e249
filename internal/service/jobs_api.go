package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/jobs"
)

// The async job API. POST /jobs accepts a batch of netlists to map
// against one shared library and returns a job id immediately; the
// batch runs detached on the service's worker pool, holding a single
// admission slot for the whole run and compiling (or cache-hitting)
// the library exactly once. GET /jobs/{id} polls structured progress,
// GET /jobs/{id}/result streams one NDJSON record per item as it
// lands, DELETE /jobs/{id} cancels via the same context plumbing the
// synchronous path uses — the in-flight item stops within a few dozen
// nodes and settles as 499.

// JobRequest is the POST /jobs body: the batch items plus shared
// mapping parameters with the same semantics as MapRequest. A bare
// "blif" is accepted as a single-item shorthand.
type JobRequest struct {
	// Items are the netlists to map, in order.
	Items []JobItemRequest `json:"items,omitempty"`
	// BLIF is the single-item shorthand (exclusive with Items).
	BLIF string `json:"blif,omitempty"`
	// Shared mapping parameters, applied to every item.
	Library      string           `json:"library,omitempty"`
	Genlib       string           `json:"genlib,omitempty"`
	Mode         string           `json:"mode,omitempty"`
	Class        string           `json:"class,omitempty"`
	Delay        string           `json:"delay,omitempty"`
	K            int              `json:"k,omitempty"`
	AreaRecovery bool             `json:"area_recovery,omitempty"`
	RequiredTime float64          `json:"required_time,omitempty"`
	Verify       bool             `json:"verify,omitempty"`
	Memo         *bool            `json:"memo,omitempty"`
	Supergates   *SupergateConfig `json:"supergates,omitempty"`
	// TimeoutMillis bounds each item (not the whole batch), clamped to
	// the server's maximum; a timed-out item settles as 504 and the
	// batch moves on.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
}

// JobItemRequest is one netlist in a batch.
type JobItemRequest struct {
	// Name labels the item in status and result records (optional).
	Name string `json:"name,omitempty"`
	// BLIF is the circuit to map (required).
	BLIF string `json:"blif"`
}

// itemRequest expands the shared parameters into the MapRequest the
// synchronous path would have received for this item, which is what
// keeps batch results byte-identical to /map.
func (jr *JobRequest) itemRequest(blif string) MapRequest {
	return MapRequest{
		BLIF:          blif,
		Library:       jr.Library,
		Genlib:        jr.Genlib,
		Mode:          jr.Mode,
		Class:         jr.Class,
		Delay:         jr.Delay,
		K:             jr.K,
		AreaRecovery:  jr.AreaRecovery,
		RequiredTime:  jr.RequiredTime,
		TimeoutMillis: jr.TimeoutMillis,
		Verify:        jr.Verify,
		Memo:          jr.Memo,
		Supergates:    jr.Supergates,
	}
}

// JobAccepted is the 202 response to POST /jobs.
type JobAccepted struct {
	JobID     string `json:"job_id"`
	Items     int    `json:"items"`
	StatusURL string `json:"status_url"`
	ResultURL string `json:"result_url"`
}

// JobItemStatus is one item's slice of the GET /jobs/{id} response.
type JobItemStatus struct {
	Index int    `json:"index"`
	Name  string `json:"name,omitempty"`
	State string `json:"state"`
	// Status is the HTTP-style classification of a settled item (200,
	// 400, 499, 504, 500); omitted while pending/running.
	Status        int                `json:"status,omitempty"`
	Error         string             `json:"error,omitempty"`
	ElapsedMillis float64            `json:"elapsed_ms,omitempty"`
	PhaseMillis   map[string]float64 `json:"phase_ms,omitempty"`
}

// JobStatusResponse is the GET /jobs/{id} body: queued → running(i/N)
// → done/failed/cancelled, with per-item phase wall times.
type JobStatusResponse struct {
	JobID     string          `json:"job_id"`
	State     string          `json:"state"`
	Error     string          `json:"error,omitempty"`
	Items     int             `json:"items"`
	Completed int             `json:"completed"`
	Failed    int             `json:"failed"`
	Cancelled int             `json:"cancelled"`
	AgeMillis float64         `json:"age_ms"`
	RunMillis float64         `json:"run_ms,omitempty"`
	ItemState []JobItemStatus `json:"item_status"`
	ResultURL string          `json:"result_url"`
}

// JobItemRecord is one line of the GET /jobs/{id}/result NDJSON
// stream: the item's classification plus, for mapped items, the same
// MapResponse the synchronous path returns.
type JobItemRecord struct {
	Index  int    `json:"index"`
	Name   string `json:"name,omitempty"`
	Status int    `json:"status"`
	Error  string `json:"error,omitempty"`
	// TraceID is the parent job's id (job ids are trace ids), so every
	// NDJSON record joins the job's access-log lines.
	TraceID string `json:"trace_id,omitempty"`
	// ResponseBytes is the length of Response exactly as this record
	// embeds it (pre-compression), so clients accounting transfer volume
	// per item — loadgen's gzip accounting, capacity models — don't
	// have to re-marshal each response to measure it. 0 when the item
	// carried no response.
	ResponseBytes int `json:"response_bytes,omitempty"`
	// Response is the item's MapResponse as /map would send it (less
	// the trailing newline): the cache splice for a cached item, one
	// encoding of the computed response otherwise.
	Response json.RawMessage `json:"response,omitempty"`
}

// handleJobs serves POST /jobs. Every request counts as received, as
// at /map: a rejection then finishes it by result, an accepted one as
// a submitted job.
func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	s.metrics.total.Add(1)
	if r.Method != http.MethodPost {
		s.failure(w, http.StatusMethodNotAllowed, "POST a JSON batch job to /jobs")
		return
	}
	var req JobRequest
	if st, msg := s.decodeBody(r, &req); st != 0 {
		s.failure(w, st, "%s", msg)
		return
	}
	items := req.Items
	if len(items) == 0 {
		if strings.TrimSpace(req.BLIF) == "" {
			s.failure(w, http.StatusBadRequest, `bad request: provide "items" or a single "blif"`)
			return
		}
		items = []JobItemRequest{{BLIF: req.BLIF}}
		req.BLIF = ""
	} else if strings.TrimSpace(req.BLIF) != "" {
		s.failure(w, http.StatusBadRequest, `bad request: "items" and top-level "blif" are exclusive`)
		return
	}
	if len(items) > s.cfg.MaxBatchItems {
		s.failure(w, http.StatusBadRequest, "bad request: %d items exceeds the batch limit of %d", len(items), s.cfg.MaxBatchItems)
		return
	}
	names := make([]string, len(items))
	for i := range items {
		if strings.TrimSpace(items[i].BLIF) == "" {
			s.failure(w, http.StatusBadRequest, `bad request: item %d has no "blif"`, i)
			return
		}
		names[i] = items[i].Name
	}

	ctx, cancel := context.WithCancel(context.Background())
	var job *jobs.Job
	var err error
	for attempt := 0; attempt < 4; attempt++ {
		job, err = s.jobs.Add(newTraceID(), names, cancel)
		if !errors.Is(err, jobs.ErrDuplicateID) {
			break
		}
	}
	if err != nil {
		cancel()
		if errors.Is(err, jobs.ErrStoreFull) {
			s.failure(w, http.StatusTooManyRequests,
				"job store full: %d jobs resident and none finished; retry later", s.cfg.MaxJobs)
			return
		}
		s.failure(w, http.StatusInternalServerError, "job admission: %v", err)
		return
	}
	s.metrics.jobs.submitted.Add(1)
	go func() {
		// Release the cancel context once the run settles (DELETE uses
		// the same func via the store; cancelling twice is harmless).
		defer cancel()
		s.runJob(ctx, job, &req, items)
	}()
	writeJSON(w, http.StatusAccepted, JobAccepted{
		JobID:     job.ID,
		Items:     len(items),
		StatusURL: "/jobs/" + job.ID,
		ResultURL: "/jobs/" + job.ID + "/result",
	})
}

// handleJobByID routes GET /jobs/{id}, GET /jobs/{id}/result and
// DELETE /jobs/{id}.
func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeError(w, http.StatusNotFound, "no job id in path")
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		job, ok := s.jobs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		writeJSON(w, http.StatusOK, jobStatus(job))
	case sub == "" && r.Method == http.MethodDelete:
		job, ok := s.jobs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		fired := job.RequestCancel()
		writeJSON(w, http.StatusOK, map[string]any{
			"job_id":    id,
			"cancelled": fired,
			"state":     job.State().String(),
		})
	case sub == "result" && r.Method == http.MethodGet:
		job, ok := s.jobs.Get(id)
		if !ok {
			writeError(w, http.StatusNotFound, "no job %q (expired or never existed)", id)
			return
		}
		s.streamJobResult(w, r, job)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET /jobs/{id}, GET /jobs/{id}/result, or DELETE /jobs/{id}")
	}
}

// jobStatus shapes a store snapshot into the poll response.
func jobStatus(job *jobs.Job) JobStatusResponse {
	snap := job.Snapshot()
	resp := JobStatusResponse{
		JobID:     snap.ID,
		State:     snap.State.String(),
		Error:     snap.Err,
		Items:     len(snap.Items),
		Completed: snap.Done,
		Failed:    snap.Failed,
		Cancelled: snap.Cancelled,
		AgeMillis: millis(time.Since(snap.Created)),
		ResultURL: "/jobs/" + snap.ID + "/result",
		ItemState: make([]JobItemStatus, len(snap.Items)),
	}
	if !snap.Started.IsZero() {
		end := snap.Finished
		if end.IsZero() {
			end = time.Now()
		}
		resp.RunMillis = millis(end.Sub(snap.Started))
	}
	for i, it := range snap.Items {
		resp.ItemState[i] = JobItemStatus{
			Index:         i,
			Name:          it.Name,
			State:         it.State.String(),
			Status:        it.Status,
			Error:         it.Err,
			ElapsedMillis: it.ElapsedMillis,
			PhaseMillis:   it.PhaseMillis,
		}
	}
	return resp
}

// streamJobResult serves GET /jobs/{id}/result: chunked NDJSON, one
// record per item, written (and flushed) the moment each item settles;
// the stream ends once the job is terminal.
// Items settle in submission order, so a client reading the stream
// while the job runs sees results incrementally; records for items
// cancelled by DELETE carry status 499.
func (s *Server) streamJobResult(w http.ResponseWriter, r *http.Request, job *jobs.Job) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Job-ID", job.ID)
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	n := job.Len()
	for i := 0; i < n; i++ {
		it, err := job.WaitItem(r.Context(), i)
		if err != nil {
			return // client went away mid-stream
		}
		rec := it.Result
		if rec == nil {
			// Items settled in bulk (job-level failure, cancellation)
			// have no prebuilt record; synthesize the classification.
			rec, _ = json.Marshal(JobItemRecord{Index: i, Name: it.Name, Status: it.Status, Error: it.Err, TraceID: job.ID})
		}
		if _, err := w.Write(append(rec, '\n')); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	// The runner settles the job just after its last item: end the
	// stream only then, so a poll that follows it sees the job finished
	// (and, past the TTL, sweepable).
	_ = job.WaitTerminal(r.Context())
}

// runJob executes one accepted batch: wait for a worker-pool slot
// (blocking — the job store, not the sync queue, is the backpressure
// for async work), resolve and compile the shared library once, then
// map the items in order, each under its own deadline, settling every
// item as it finishes so pollers and streamers see progress live.
func (s *Server) runJob(ctx context.Context, job *jobs.Job, req *JobRequest, items []JobItemRequest) {
	queueStart := time.Now()
	if err := s.adm.acquireBlocking(ctx); err != nil {
		// Cancelled while queued: settle everything as 499.
		job.CancelRemaining(time.Now())
		s.finishJob(job)
		return
	}
	defer s.adm.release()
	s.metrics.phases[phaseQueue].Add(int64(time.Since(queueStart)))

	if !job.Start(time.Now()) {
		s.finishJob(job)
		return
	}

	// One admission slot, one library resolution for the whole batch:
	// repeated genlib uploads or supergate expansions amortize across
	// every item (and across batches, via the content-addressed cache).
	base := req.itemRequest("")
	t0 := time.Now()
	lib, err := s.resolveLibrary(&base)
	s.metrics.phases[phaseCompile].Add(int64(time.Since(t0)))
	if err != nil {
		job.FailAll(http.StatusBadRequest, fmt.Sprintf("library compile: %v", err), time.Now())
		s.finishJob(job)
		return
	}

	for i := range items {
		if ctx.Err() != nil {
			break
		}
		job.BeginItem(i)
		job.FinishItem(i, s.runJobItem(ctx, job.ID, req, &items[i], i, lib))
	}
	if ctx.Err() != nil {
		job.CancelRemaining(time.Now())
	} else {
		job.Finish(time.Now())
	}
	s.finishJob(job)
}

// runJobItem maps one batch item through the request pipeline with the
// batch's library and classifies the outcome as 200, 400, 499 (job
// cancelled) or 504 (item deadline). jobID — a trace id — attributes
// the item's NDJSON record and access-log line to its parent job.
func (s *Server) runJobItem(ctx context.Context, jobID string, req *JobRequest, item *JobItemRequest, idx int, lib library) jobs.Item {
	mreq := req.itemRequest(item.BLIF)
	ph := reqPhases{start: time.Now()}
	res := s.mapRequest(ctx, &mreq, &lib, &ph)
	err := res.err
	elapsed := ph.elapsed()

	out := jobs.Item{
		ElapsedMillis: millis(elapsed),
		PhaseMillis:   itemPhaseMillis(&ph),
	}
	rec := JobItemRecord{Index: idx, Name: item.Name, TraceID: jobID}
	if err == nil {
		out.State, out.Status = jobs.ItemDone, http.StatusOK
		rec.Status = http.StatusOK
		if resp := res.resp; resp == nil {
			// Served from the cache: the same splice as /map.
			rec.Response = spliceCachedResponse(res.view, millis(elapsed), jobID, res.tier)
		} else {
			// Items feed the work counters (patterns, memo) and the
			// job-item families, but not the /map request counters —
			// batch work must not inflate the synchronous serving stats.
			// Cache-served items did no work here.
			s.metrics.recordWork(resp.PatternsTried, resp.MemoHits, resp.MemoMisses)
			resp.ElapsedMillis = millis(elapsed)
			resp.TraceID = jobID
			// Encoding fails only on a non-finite float; the record then
			// carries no response and response_bytes reads 0.
			rec.Response, _ = encodeJSON(resp)
		}
		rec.ResponseBytes = len(rec.Response)
	} else {
		if ctx.Err() != nil {
			// The job-level context fired: DELETE (or shutdown), not a
			// per-item deadline.
			err = ctx.Err()
		}
		out.Status, out.Err = s.classify(err, res.status, s.requestTimeout(&mreq), true)
		out.State = jobs.ItemFailed
		if out.Status == jobs.StatusClientClosedRequest {
			out.State = jobs.ItemCancelled
		}
		rec.Status, rec.Error = out.Status, out.Err
	}
	ph.errMsg = out.Err
	s.metrics.phases.add(&ph)
	s.logEvent(jobID, idx, item.Name, out.Status, elapsed, &ph)

	if b, err := encodeJSON(rec); err == nil {
		out.Result = b
	}
	return out
}

// encodeJSON encodes v as writeJSON does, without HTML escaping, less
// the trailing newline.
func encodeJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte{'\n'}), nil
}

// itemPhaseMillis renders one item's phase breakdown: a request's, less
// the queue and compile phases, which a batch pays once for all items.
func itemPhaseMillis(ph *reqPhases) map[string]float64 {
	m := make(map[string]float64, int(numPhases)+len(engineNames))
	for p, name := range phaseNames {
		if phase(p) != phaseQueue && phase(p) != phaseCompile {
			m[name] = millis(ph.dur[p])
		}
	}
	if ph.core != (dagcover.PhaseBreakdown{}) {
		for i, ms := range ph.engineMillis() {
			m[engineNames[i]] = ms
		}
	}
	return m
}

// finishJob folds a settled job into the metrics: final state, item
// outcome counts, and per-item latency observations.
func (s *Server) finishJob(job *jobs.Job) {
	snap := job.Snapshot()
	jm := &s.metrics.jobs
	switch snap.State {
	case jobs.Done:
		jm.done.Add(1)
	case jobs.Failed:
		jm.failed.Add(1)
	case jobs.Cancelled:
		jm.cancelled.Add(1)
	}
	for _, it := range snap.Items {
		switch resultLabel(it.Status) {
		case resultOK:
			jm.itemsOK.Add(1)
			jm.mu.Lock()
			jm.itemLatency.observe(it.ElapsedMillis / 1e3)
			jm.mu.Unlock()
		case resultCanceled:
			jm.itemsCancelled.Add(1)
		case resultTimeout:
			jm.itemsTimeout.Add(1)
		default:
			jm.itemsFailed.Add(1)
		}
	}
}
