// Package service turns the one-shot mapper into a long-running
// mapping service: an HTTP/JSON front end over the dagcover facade
// with the three properties a shared deployment needs.
//
//   - Compiled-library cache. Parsing a genlib and compiling its
//     pattern plans and signature index dominates short requests;
//     the cache (see Cache) does that work once per distinct library
//     content and shares the immutable result, while per-request
//     matcher scratch comes from dagcover.CompiledLibrary's pool.
//   - Admission control. A bounded worker pool (see admitter) caps
//     concurrent mappings and the wait queue; excess load is rejected
//     with 429 instead of accumulating goroutines and memory.
//   - Cancellation. Every request runs under a context carrying the
//     client connection and a per-request deadline, which bounds its
//     wait for a run slot and which the core labeling/construction
//     loops poll — a disconnect or timeout stops the mapping within a
//     few dozen nodes, not after it.
//
// Every /map request and every /jobs item maps through one pipeline
// (mapRequest): raw lookaside; ingest and digest; the memory, then the
// disk tier of the whole-result cache; compute (admission, library
// resolution, mapWith); publish. The cache stages take part only when
// result caching is on and the mode is dag or tree (cachesResult);
// otherwise they pass through. A job item holds its batch's run slot
// and library, so it skips admission.
//
// Endpoints: POST /map; POST /jobs, GET /jobs/{id}, GET
// /jobs/{id}/result and DELETE /jobs/{id} (batch jobs, see jobs_api.go);
// GET /healthz; GET /stats and GET /metrics (one snapshot, Server.Stats,
// encoded as JSON and as Prometheus text). Each /map request and job
// item also writes one access-log record (logEvent) when a Logger is
// set.
package service

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"strings"
	"time"

	"dagcover"
	"dagcover/internal/jobs"
)

// Config tunes a Server. The zero value serves with sensible defaults.
type Config struct {
	// Concurrency caps simultaneous mapping runs (default NumCPU).
	Concurrency int
	// QueueDepth caps requests waiting for a run slot (default
	// 4x Concurrency; negative means no queue — shed immediately).
	// Beyond it requests get 429.
	QueueDepth int
	// DefaultTimeout bounds a request that doesn't ask for a timeout
	// (default 60s); MaxTimeout caps what a request may ask for
	// (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxRequestBytes bounds the request body (default 32 MiB).
	MaxRequestBytes int64
	// CacheEntries bounds the compiled-library cache (default 128).
	CacheEntries int
	// MaxJobs bounds the async job store (default 512). At capacity the
	// oldest finished job is evicted to admit a new one; when every
	// resident job is still active, submissions are shed with 429.
	MaxJobs int
	// JobTTL is how long finished jobs (status and results) stay
	// pollable before the store sweeps them (default 15m).
	JobTTL time.Duration
	// MaxBatchItems caps the netlists in one batch job (default 64).
	MaxBatchItems int
	// Store, when non-nil, is the persistent content-addressed artifact
	// store consulted by supergate requests: expanded supergate
	// libraries are loaded from it instead of regenerated, and fresh
	// generations are published to it. Several servers (and the techmap
	// CLI) may share one store directory; mapping output is
	// byte-identical with or without it.
	Store *dagcover.ArtifactStore
	// Logger, when non-nil, receives one structured access-log record
	// per /map request and batch item (see logEvent). nil keeps the
	// server quiet.
	Logger *slog.Logger
	// SlowRequest, when positive, logs requests slower than this at
	// Warn level (requires Logger).
	SlowRequest time.Duration
	// ResultCacheBytes bounds the in-memory mapping result cache: whole
	// serialized responses keyed by (subject-graph digest, library key,
	// normalized options), so repeated identical requests skip the
	// engine entirely. 0 selects the 64 MiB default; negative disables
	// result caching altogether (memory tier and the mapres6 disk
	// tier). The mapper is deterministic, so a cached response's
	// netlist is byte-identical to a recomputed one, and concurrent
	// identical misses each run the engine (bounded by Concurrency)
	// and publish the same bytes.
	ResultCacheBytes int64
}

func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.NumCPU()
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.Concurrency
	} else if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	if c.MaxRequestBytes <= 0 {
		c.MaxRequestBytes = 32 << 20
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 512
	}
	if c.JobTTL <= 0 {
		c.JobTTL = 15 * time.Minute
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	} else if c.ResultCacheBytes < 0 {
		c.ResultCacheBytes = 0
	}
	return c
}

// Server is the mapping service. Create with New, mount Handler into
// an http.Server.
type Server struct {
	cfg     Config
	cache   *Cache
	adm     *admitter
	metrics *metrics
	jobs    *jobs.Store
	store   *dagcover.ArtifactStore
	mux     *http.ServeMux
	handler http.Handler

	// Whole-result cache (nil when disabled): the in-memory LRU tier.
	// The disk tier rides the artifact store (kind mapres6).
	resultCache *resultCache

	// mapStartHook, when a test sets it before serving, runs on a
	// request's goroutine just before the engine starts.
	mapStartHook func(*MapRequest)
}

// New builds a Server.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		cache:   NewCache(cfg.CacheEntries),
		adm:     newAdmitter(cfg.Concurrency, cfg.QueueDepth),
		metrics: newMetrics(),
		jobs:    jobs.NewStore(cfg.MaxJobs, cfg.JobTTL, nil),
		store:   cfg.Store,
		mux:     http.NewServeMux(),
	}
	if cfg.ResultCacheBytes > 0 {
		s.resultCache = newResultCache(cfg.ResultCacheBytes)
	}
	s.mux.HandleFunc("/map", s.handleMap)
	s.mux.HandleFunc("/jobs", s.handleJobs)
	s.mux.HandleFunc("/jobs/", s.handleJobByID)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.handler = s.transport(s.mux)
	return s
}

// Close is a no-op for callers that close their servers: the server
// runs no background work (runtime telemetry is read per snapshot).
// In-flight requests are unaffected; safe to call more than once.
func (s *Server) Close() {}

// Handler returns the service's HTTP handler: the endpoint mux behind
// the wire transport (request body bounds, gzip negotiation).
func (s *Server) Handler() http.Handler { return s.handler }

// Cache exposes the compiled-library cache (tests, warm-up).
func (s *Server) Cache() *Cache { return s.cache }

// Jobs exposes the async job store (tests, operators).
func (s *Server) Jobs() *jobs.Store { return s.jobs }

// Store exposes the artifact store (tests, operators); nil when the
// server runs without one.
func (s *Server) Store() *dagcover.ArtifactStore { return s.store }

// MapRequest is the POST /map body.
type MapRequest struct {
	// BLIF is the circuit to map (required).
	BLIF string `json:"blif"`
	// Library names a built-in library: lib2 (default), 44-1, 44-3.
	Library string `json:"library,omitempty"`
	// Genlib, when set, is uploaded genlib text and overrides Library.
	// Identical uploads share one cached compilation (content hash).
	Genlib string `json:"genlib,omitempty"`
	// Mode is dag (default), tree, or lut.
	Mode string `json:"mode,omitempty"`
	// Class is standard (default) or extended (dag mode only).
	Class string `json:"class,omitempty"`
	// Delay is intrinsic (default) or unit.
	Delay string `json:"delay,omitempty"`
	// K is the LUT input count for lut mode (default 4).
	K int `json:"k,omitempty"`
	// AreaRecovery/RequiredTime configure area recovery (dag mode).
	AreaRecovery bool    `json:"area_recovery,omitempty"`
	RequiredTime float64 `json:"required_time,omitempty"`
	// TimeoutMillis overrides the server's default per-request
	// timeout, clamped to the server's maximum.
	TimeoutMillis int `json:"timeout_ms,omitempty"`
	// Verify re-simulates the mapped netlist against the input before
	// responding.
	Verify bool `json:"verify,omitempty"`
	// Memo, when set to false, turns off the structural match memo for
	// this request's mapping run (the mapped netlist is byte-identical
	// either way; this is the per-request escape hatch and baseline
	// knob). Omitted or true records and replays within the run.
	Memo *bool `json:"memo,omitempty"`
	// Supergates, when set, expands the library with composed
	// supergates before compiling (dag/tree modes only). The expanded
	// compilation is cached under the library key plus the normalized
	// bounds, so repeated requests share it.
	Supergates *SupergateConfig `json:"supergates,omitempty"`
}

// SupergateConfig bounds server-side supergate generation. Zero
// fields take defaults; all fields are clamped to server-safe caps
// (generation cost grows steeply with the bounds, and an uploaded
// library must not be able to request an unbounded expansion).
type SupergateConfig struct {
	// MaxInputs caps supergate input count (default 4, max 6).
	MaxInputs int `json:"max_inputs,omitempty"`
	// MaxDepth caps composition depth (default 2, max 3).
	MaxDepth int `json:"max_depth,omitempty"`
	// MaxGates caps emitted supergates (default 512, max 1024).
	MaxGates int `json:"max_gates,omitempty"`
}

// Server-side caps on SupergateConfig.
const (
	maxSupergateInputs = 6
	maxSupergateDepth  = 3
	maxSupergateGates  = 1024
)

// normalize applies defaults and clamps; the result is what both the
// generator and the cache key see, so two requests that clamp to the
// same bounds share one compilation.
func (c *SupergateConfig) normalize() SupergateConfig {
	out := SupergateConfig{MaxInputs: 4, MaxDepth: 2, MaxGates: 512}
	if c == nil {
		return out
	}
	if c.MaxInputs > 0 {
		out.MaxInputs = min(max(c.MaxInputs, 2), maxSupergateInputs)
	}
	if c.MaxDepth > 0 {
		out.MaxDepth = min(c.MaxDepth, maxSupergateDepth)
	}
	if c.MaxGates > 0 {
		out.MaxGates = min(c.MaxGates, maxSupergateGates)
	}
	return out
}

// cacheSuffix renders the normalized bounds into the cache key.
func (c SupergateConfig) cacheSuffix() string {
	return fmt.Sprintf("|sg:i%d,d%d,g%d", c.MaxInputs, c.MaxDepth, c.MaxGates)
}

// MapResponse is the POST /map success body.
type MapResponse struct {
	Circuit string `json:"circuit"`
	Library string `json:"library"`
	Mode    string `json:"mode"`
	// Netlist is the mapped circuit as BLIF (.gate form for dag/tree,
	// .names LUTs for lut).
	Netlist           string  `json:"netlist"`
	Delay             float64 `json:"delay,omitempty"`
	Area              float64 `json:"area,omitempty"`
	Cells             int     `json:"cells,omitempty"`
	Depth             int     `json:"depth,omitempty"`
	LUTs              int     `json:"luts,omitempty"`
	DuplicatedNodes   int     `json:"duplicated_nodes,omitempty"`
	SubjectNodes      int     `json:"subject_nodes,omitempty"`
	PatternsTried     int     `json:"patterns_tried,omitempty"`
	MatchesEnumerated int     `json:"matches_enumerated,omitempty"`
	// MemoHits/MemoMisses count the structural match-memo
	// consultations of this request's mapping run, which starts with
	// empty tables. Only the serving that ran the engine reports them:
	// they are not part of the canonical payload (result_sha), so
	// cached servings omit them.
	MemoHits   int `json:"memo_hits,omitempty"`
	MemoMisses int `json:"memo_misses,omitempty"`
	// CacheHit reports whether the library was already compiled.
	CacheHit bool `json:"cache_hit"`
	// SGStoreHit, for supergate requests served by a server with a
	// persistent artifact store, reports whether the expanded library's
	// artifact came from the store (true: enumeration was skipped, by
	// this process or an earlier one) or was generated fresh (false).
	// Absent when the request asked for no supergates or the server has
	// no store.
	SGStoreHit *bool `json:"sg_store_hit,omitempty"`
	// SGArtifactSHA is the SHA-256 of the supergate genlib artifact —
	// equal across every process that expands the same library under
	// the same bounds, which is how a fleet (or a CI restart check)
	// asserts it shares one artifact. Present exactly when SGStoreHit
	// is. Both depend on the server's store configuration, not on the
	// result, so the canonical payload (result_sha) leaves them out and
	// the result cache carries them beside it (see rcView).
	SGArtifactSHA string `json:"sg_artifact_sha,omitempty"`
	// SubjectSHA is the canonical content digest of the subject graph
	// the request mapped (see dagcover.MapResult.SubjectSHA); with the
	// library key and normalized options it fully determines the
	// response, which is what makes whole-result caching sound. Absent
	// in lut mode.
	SubjectSHA string `json:"subject_sha,omitempty"`
	// ResultCache reports how the whole-result cache served this
	// response: hit-mem (in-process LRU), hit-disk (artifact store,
	// e.g. after a restart or from a sibling replica), or miss
	// (computed and published). Absent when result caching is disabled
	// or the mode is not cacheable (lut).
	ResultCache string `json:"result_cache,omitempty"`
	// ResultSHA is the SHA-256 of the canonical serialized result (the
	// response with volatile per-request fields zeroed). Identical
	// requests get identical ResultSHA whether served cold or warm —
	// the cheap way to assert byte-level determinism.
	ResultSHA string `json:"result_sha,omitempty"`
	Verified  bool   `json:"verified,omitempty"`
	// ElapsedMillis is the serving time excluding queueing.
	ElapsedMillis float64 `json:"elapsed_ms"`
	// TraceID echoes the per-request trace id (also the X-Trace-ID
	// response header) for correlation with the server's access log.
	TraceID string `json:"trace_id,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(body)
}

// failure counts a /map or /jobs-submission error by result and writes
// its body.
func (s *Server) failure(w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.requests[resultLabel(status)].Add(1)
	writeError(w, status, format, args...)
}

// writeError writes an error body without counting it: job lookups are
// not mapping requests.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// decodeBody strictly decodes a JSON request body. The transport
// middleware has already bounded it (and, for Content-Encoding: gzip,
// transparently decompressed it). On failure it returns the status and
// message to respond with; on success status 0.
func (s *Server) decodeBody(r *http.Request, v any) (int, string) {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	switch {
	case err == nil:
		return 0, ""
	case isBodyTooLarge(err):
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds the %d-byte limit (after decompression, if gzip)", s.cfg.MaxRequestBytes)
	}
	return http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	bi := buildInfo()
	writeJSON(w, http.StatusOK, map[string]any{
		"status":     "ok",
		"uptime_ms":  time.Since(s.metrics.start).Milliseconds(),
		"go_version": bi.GoVersion,
		"version":    bi.Version,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// reqPhases is one request's wall-time breakdown plus the attribution
// fields the access log wants. Phases are accumulated into the global
// counters (mapd_phase_seconds_total) when the request finishes.
type reqPhases struct {
	dur [numPhases]time.Duration // indexed by phase

	// start is when serving began: the end of body decode on /map, the
	// item's start in a batch. elapsed measures from it.
	start time.Time

	library  string
	mode     string
	cacheHit bool

	// core is the engine's own phase breakdown (label/cover/emit wall
	// times from the internal/obs instrumentation), zero when the mapper
	// did not run; job item status and the access log both report it.
	core dagcover.PhaseBreakdown

	// Access-log attribution: the failure message and the engine's
	// per-call counters.
	errMsg     string
	memoHits   int
	memoMisses int
	sgStoreHit *bool

	// Result-cache attribution: the subject-graph digest (when one was
	// computed) and how the whole-result cache served the request
	// (hit-mem/hit-disk/miss; empty off the cached path).
	subjectSHA  string
	resultCache string
}

// newTraceID returns a 16-hex-char per-request trace id. It appears
// in the X-Trace-ID response header and every access-log record, so a
// slow-request log line can be joined to the client's response.
func newTraceID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// elapsed is a response's elapsed_ms: serving time from the end of
// body decode, less the time spent waiting for a run slot. It also
// feeds the per-library latency histograms.
func (ph *reqPhases) elapsed() time.Duration { return time.Since(ph.start) - ph.dur[phaseQueue] }

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	s.metrics.total.Add(1)
	traceID := newTraceID()
	w.Header().Set("X-Trace-ID", traceID)
	reqStart := time.Now()
	var ph reqPhases
	status := http.StatusOK
	defer func() {
		s.metrics.phases.add(&ph)
		s.logEvent(traceID, -1, "", status, time.Since(reqStart), &ph)
	}()
	fail := func(st int, format string, args ...any) {
		status = st
		ph.errMsg = fmt.Sprintf(format, args...)
		s.failure(w, st, format, args...)
	}
	if r.Method != http.MethodPost {
		fail(http.StatusMethodNotAllowed, "POST a JSON mapping request to /map")
		return
	}
	var req MapRequest
	if st, msg := s.decodeBody(r, &req); st != 0 {
		fail(st, "%s", msg)
		return
	}
	if strings.TrimSpace(req.BLIF) == "" {
		fail(http.StatusBadRequest, `bad request: "blif" is required`)
		return
	}
	ph.start = time.Now()
	out := s.mapRequest(r.Context(), &req, nil, &ph)
	if out.err != nil {
		st, msg := s.classify(out.err, out.status, s.requestTimeout(&req), false)
		fail(st, "%s", msg)
		return
	}
	elapsed := ph.elapsed()
	if out.resp == nil {
		// Served from the cache: byte-splice the canonical payload. A
		// cached serving did no engine work, so it adds none to the work
		// counters.
		t0 := time.Now()
		body := spliceCachedResponse(out.view, millis(elapsed), traceID, out.tier)
		s.metrics.recordServed(out.view.library, elapsed, 0, 0, 0)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(append(body, '\n'))
		ph.dur[phaseRespond] = time.Since(t0)
		return
	}
	resp := out.resp
	s.metrics.recordServed(resp.Library, elapsed, resp.PatternsTried, resp.MemoHits, resp.MemoMisses)
	resp.ElapsedMillis = millis(elapsed)
	resp.TraceID = traceID
	writeJSON(w, http.StatusOK, resp)
}

// engineMillis is the engine's own phase breakdown (internal/obs wall
// times) in engineNames order, for the access log and job item status.
func (ph *reqPhases) engineMillis() [len(engineNames)]float64 {
	c := &ph.core
	return [...]float64{c.LabelMillis, c.AreaMillis, c.CoverMillis, c.EmitMillis}
}

var engineNames = [...]string{"label", "area", "cover", "emit"}

// logEvent writes the one access-log record of a /map request
// (itemIndex < 0) or batch item: where its time went and how it was
// served. An item's record carries its parent job's trace id, so a
// single grep follows a batch end to end. Records slower than
// SlowRequest are promoted to Warn.
func (s *Server) logEvent(traceID string, itemIndex int, itemName string, status int, total time.Duration, ph *reqPhases) {
	lg := s.cfg.Logger
	if lg == nil {
		return
	}
	msg := "mapping request"
	attrs := make([]any, 0, 2*(20+numPhases))
	attrs = append(attrs, "trace_id", traceID)
	if itemIndex >= 0 {
		msg = "job item"
		attrs = append(attrs, "item_index", itemIndex, "item_name", itemName)
	}
	attrs = append(attrs, "status", status, "result", resultLabel(status).String())
	if ph.errMsg != "" {
		attrs = append(attrs, "error", ph.errMsg)
	}
	attrs = append(attrs, "library", ph.library, "mode", ph.mode, "cache_hit", ph.cacheHit)
	if ph.resultCache != "" {
		attrs = append(attrs, "result_cache", ph.resultCache)
	}
	if ph.subjectSHA != "" {
		attrs = append(attrs, "subject_sha", ph.subjectSHA)
	}
	attrs = append(attrs, "memo_hits", ph.memoHits, "memo_misses", ph.memoMisses)
	if ph.sgStoreHit != nil {
		attrs = append(attrs, "sg_store_hit", *ph.sgStoreHit)
	}
	attrs = append(attrs, "total_ms", millis(total))
	for p, name := range phaseNames {
		attrs = append(attrs, name+"_ms", millis(ph.dur[p]))
	}
	if ph.core != (dagcover.PhaseBreakdown{}) {
		for i, ms := range ph.engineMillis() {
			attrs = append(attrs, engineNames[i]+"_ms", ms)
		}
	}
	if s.cfg.SlowRequest > 0 && total >= s.cfg.SlowRequest {
		lg.Warn("slow "+msg, attrs...)
		return
	}
	lg.Info(msg, attrs...)
}

// statusClientClosedRequest mirrors nginx's non-standard 499: the
// client disconnected before the response; nobody reads the body, but
// the access log keeps an honest status.
const statusClientClosedRequest = 499

// ingest reads a request's BLIF into its subject graph, charging the
// parse phase. It is every mapping request's one ingest path: streamed,
// in the AST reader's declaration order if the file's differs, or
// re-read through the AST reader (dagcover.ReadSubjectBLIF), so graph,
// digest and error text are always the AST reader's.
func ingest(req *MapRequest, ph *reqPhases) (*dagcover.SubjectGraph, error) {
	t0 := time.Now()
	g, err := dagcover.ReadSubjectBLIF(strings.NewReader(req.BLIF))
	ph.dur[phaseParse] += time.Since(t0)
	return g, err
}

// libraryName is the built-in library the request names, with the
// default filled in.
func (r *MapRequest) libraryName() string {
	if r.Library == "" {
		return "lib2"
	}
	return r.Library
}

// modeName is the request's mode with the default filled in.
func (r *MapRequest) modeName() string {
	if r.Mode == "" {
		return "dag"
	}
	return r.Mode
}

// lutK is a lut-mode request's LUT input count (default 4).
func (r *MapRequest) lutK() int {
	if r.K == 0 {
		return 4
	}
	return r.K
}

// mapOptions translates a request into Map options. Its errors are the
// 400 bodies clients see.
func (s *Server) mapOptions(req *MapRequest, lib library) (dagcover.MapOptions, error) {
	opt := dagcover.MapOptions{
		Library:      lib.cl,
		AreaRecovery: req.AreaRecovery,
		RequiredTime: req.RequiredTime,
		NoMemo:       req.Memo != nil && !*req.Memo,
	}
	if req.Mode == "lut" {
		if req.Supergates != nil {
			return opt, fmt.Errorf("supergates apply to gate-library modes (dag, tree), not lut")
		}
		opt.Mode, opt.K = dagcover.ModeLUT, req.lutK()
		return opt, nil
	}
	var err error
	if opt.Delay, err = dagcover.ParseDelayModel(req.Delay); err != nil {
		return opt, err
	}
	if opt.Class, err = dagcover.ParseMatchClass(req.Class); err != nil {
		return opt, err
	}
	if opt.Mode, err = dagcover.ParseMode(req.Mode); err != nil || (opt.Mode != dagcover.ModeDAG && opt.Mode != dagcover.ModeTree) {
		return opt, fmt.Errorf("unknown mode %q (want dag, tree, or lut)", req.Mode)
	}
	return opt, nil
}

// mapWith maps one request's subject graph against its resolved
// library. It is the shared tail of the synchronous /map path and the
// batch job runner (which resolves the library once per batch), so a
// batch item's netlist is byte-identical to what /map would return for
// the same input.
func (s *Server) mapWith(ctx context.Context, req *MapRequest, g *dagcover.SubjectGraph, lib library, ph *reqPhases) (*MapResponse, int, error) {
	ph.library, ph.cacheHit = lib.name, lib.hit
	opt, err := s.mapOptions(req, lib)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	if s.mapStartHook != nil {
		s.mapStartHook(req)
	}
	t0 := time.Now()
	res, err := dagcover.Map(ctx, dagcover.Input{Subject: g}, opt)
	ph.dur[phaseMap] = time.Since(t0)
	if err != nil {
		// Context errors are classified by the caller; anything else
		// is an input the mapper rejected (e.g. a library without a
		// NAND2/INV basis).
		return nil, http.StatusBadRequest, err
	}
	lut := opt.Mode == dagcover.ModeLUT
	resp := &MapResponse{
		Circuit:           g.Name,
		Library:           lib.name,
		Mode:              opt.Mode.String(),
		Delay:             res.Delay,
		Area:              res.Area,
		Cells:             res.Cells,
		Depth:             res.Depth,
		LUTs:              res.LUTs,
		DuplicatedNodes:   res.DuplicatedNodes,
		PatternsTried:     res.PatternsTried,
		MatchesEnumerated: res.MatchesEnumerated,
		MemoHits:          res.MemoHits,
		MemoMisses:        res.MemoMisses,
		CacheHit:          lib.hit,
	}
	ph.core = res.Phases
	ph.memoHits, ph.memoMisses = res.MemoHits, res.MemoMisses
	if !lut {
		// LUT responses carry no subject digest: they are not result-cached.
		resp.SubjectNodes, resp.SubjectSHA = res.SubjectNodes, res.SubjectSHA
		ph.subjectSHA = res.SubjectSHA
	}
	if sg := lib.sg; sg != nil {
		h := sg.Hit
		resp.SGStoreHit = &h
		resp.SGArtifactSHA = sg.ArtifactSHA
		ph.sgStoreHit = &h
	}
	t0 = time.Now()
	defer func() { ph.dur[phaseRespond] = time.Since(t0) }()
	if req.Verify {
		// Verification simulates against the source network, the AST's
		// one use here; that parse is BLIF reading, charged to parse.
		nw, err := dagcover.ParseBLIF(strings.NewReader(req.BLIF))
		parsed := time.Since(t0)
		ph.dur[phaseParse], t0 = ph.dur[phaseParse]+parsed, t0.Add(parsed)
		kind := "mapped netlist"
		switch {
		case err != nil:
		case lut:
			kind, err = "LUT netlist", dagcover.VerifyNetworks(nw, res.Network)
		default:
			err = dagcover.Verify(nw, res.Netlist)
		}
		if err != nil {
			return nil, http.StatusInternalServerError, fmt.Errorf("%s failed verification: %v", kind, err)
		}
		resp.Verified = true
	}
	var buf bytes.Buffer
	if lut {
		err = dagcover.WriteBLIF(&buf, res.Network)
	} else {
		err = res.Netlist.WriteBLIF(&buf)
	}
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	resp.Netlist = buf.String()
	return resp, http.StatusOK, nil
}

// library is a request's resolved library: the compiled gate library
// (nil in lut mode), its name in responses and per-library stats,
// whether the compiled cache already held it, and — for supergate
// requests on a server with an artifact store — the artifact identity.
// The compiled cache holds the whole value, so every later request
// against an entry (a cache hit that never touches the store) reports
// the identity of the artifact the entry was compiled from.
type library struct {
	cl   *dagcover.CompiledLibrary
	name string
	hit  bool
	sg   *dagcover.SupergateStoreInfo
}

// resolveLibrary returns the library for the request, either a
// built-in by name or uploaded genlib text by content hash. A
// supergate request compiles (and caches) the expanded library under
// the base key plus the normalized bounds; when the server has an
// artifact store, the expansion goes through it. LUT mapping needs no
// library compile: it is labeled by its LUT size and reported as a
// cache hit, so cache dashboards don't count it as a miss.
func (s *Server) resolveLibrary(req *MapRequest) (library, error) {
	if req.Mode == "lut" {
		return library{name: fmt.Sprintf("lut-k%d", req.lutK()), hit: true}, nil
	}
	// libraryCacheKey is the single source of truth for compiled-cache
	// keys — the result cache keys off the same string, so the two
	// caches can never disagree about which compilation a request uses.
	cacheKey, err := libraryCacheKey(req)
	if err != nil {
		return library{}, err
	}
	return s.cache.Get(cacheKey, func() (out library, err error) {
		var lib *dagcover.Library
		if req.Genlib == "" {
			build, _ := dagcover.BuiltinLibrary(req.libraryName())
			lib = build()
		} else {
			// Name uploads by content-hash prefix so per-library stats
			// distinguish different uploads without trusting client names.
			name := "upload-" + strings.TrimPrefix(HashGenlib(req.Genlib), "sha256:")[:8]
			if lib, err = dagcover.LoadLibrary(name, strings.NewReader(req.Genlib)); err != nil {
				return library{}, err
			}
		}
		if req.Supergates != nil {
			sg := req.Supergates.normalize()
			opt := dagcover.SupergateOptions{MaxInputs: sg.MaxInputs, MaxDepth: sg.MaxDepth, MaxGates: sg.MaxGates}
			if s.store == nil {
				lib, _, err = dagcover.ExpandSupergates(lib, opt)
			} else {
				var info dagcover.SupergateStoreInfo
				lib, _, info, err = dagcover.ExpandSupergatesStored(s.store, lib, opt)
				out.sg = &info
			}
			if err != nil {
				return library{}, err
			}
		}
		if out.cl, err = dagcover.CompileLibrary(lib); err != nil {
			return library{}, err
		}
		out.name = out.cl.Library().Name
		return out, nil
	})
}
