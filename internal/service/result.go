package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dagcover"
	"dagcover/internal/store"
)

// The whole-result cache path. The mapper is deterministic — the same
// (subject graph, compiled library, options) triple always emits a
// byte-identical netlist — so a mapping *response* is a pure function
// of content-addressable inputs and can be cached whole. /map requests
// in cacheable modes take this path: parse and digest the subject
// graph before admission, serve memory and disk hits without consuming
// a run slot, and single-flight concurrent identical misses onto one
// engine run.

// resultKind is the artifact-store object kind and key-format version
// for cached mapping results. Bumping it (mapres3, ...) rotates every
// key, which is how a change to response serialization or mapping
// semantics invalidates old entries: they are orphaned for the GC,
// never misread. mapres2: exact matches stopped covering
// output-driving nodes, which changed some tree-mode netlists.
const resultKind = "mapres2"

// result_cache tiers reported in responses and wide events.
const (
	resultHitMem    = "hit-mem"
	resultHitDisk   = "hit-disk"
	resultMiss      = "miss"
	resultCoalesced = "coalesced"
)

// resultCacheable reports whether a request's mode goes through the
// result cache. LUT responses carry no subject digest (and LUT mode no
// library key); unknown modes fall through to the legacy path for its
// 400.
func resultCacheable(req *MapRequest) bool {
	switch req.Mode {
	case "", "dag", "tree":
		return true
	}
	return false
}

// libraryCacheKey computes the compiled-library cache key for a
// request without compiling anything: content hash for uploads,
// name-derived key for built-ins, plus the normalized supergate-bounds
// suffix. Supergate generation is deterministic, so this key pins the
// expanded library's artifact SHA without having to expand it first.
func libraryCacheKey(req *MapRequest) (string, error) {
	var key string
	if req.Genlib != "" {
		key = HashGenlib(req.Genlib)
	} else {
		name := req.Library
		if name == "" {
			name = "lib2"
		}
		switch name {
		case "lib2", "44-1", "44-3":
		default:
			return "", fmt.Errorf("unknown library %q (built-ins: lib2, 44-1, 44-3; or upload genlib text)", name)
		}
		key = BuiltinKey(name)
	}
	if req.Supergates != nil {
		key += req.Supergates.normalize().cacheSuffix()
	}
	return key, nil
}

// optionParts normalizes every request option that can change the
// response body into key components. Shared by resultKey and
// rawRequestKey so the two indexes can never disagree on what counts
// as "the same request". Memo and the server's parallelism are
// excluded from the *netlist* by determinism but memo changes the
// response's counter fields, so it is keyed; verify changes the
// Verified field (and whether verification ran), so it is keyed too.
func optionParts(req *MapRequest, mode string) []string {
	class := req.Class
	if class == "" {
		class = "standard"
	}
	delay := req.Delay
	if delay == "" {
		delay = "intrinsic"
	}
	memo := req.Memo == nil || *req.Memo
	return []string{
		mode,
		class,
		delay,
		fmt.Sprintf("ar=%t", req.AreaRecovery),
		fmt.Sprintf("rt=%g", req.RequiredTime),
		fmt.Sprintf("verify=%t", req.Verify),
		fmt.Sprintf("memo=%t", memo),
	}
}

// resultKey addresses one cached mapping result: subject-graph digest,
// library key, and the normalized options. This is the durable key —
// it survives restarts and is shared by replicas on one store volume.
func resultKey(digest, libKey, mode string, req *MapRequest) store.Key {
	return store.KeyOf(append([]string{resultKind, digest, libKey}, optionParts(req, mode)...)...)
}

// rawRequestKey addresses the in-memory lookaside: the hash of the raw
// BLIF bytes stands in for the subject digest, so a repeated request
// is recognized before any parsing happens. Distinct BLIF texts that
// canonicalize to the same subject graph get distinct raw keys but
// alias the same entry (linked on the slow path, where both keys are
// known). Process-local only: the canonical subject digest, not the
// accidental input formatting, is what may address durable objects.
func rawRequestKey(blifSHA, libKey, mode string, req *MapRequest) store.Key {
	return store.KeyOf(append([]string{"mapreq1", blifSHA, libKey}, optionParts(req, mode)...)...)
}

// encodeResultPayload serializes a response into its canonical cached
// form: serving metadata — elapsed time, trace id, cache tier, result
// digest, and the cache/store temperature flags, which depend on what
// this particular process had resident rather than on the result —
// zeroed or normalized; everything else (netlist, delay, cells, the
// engine counters of the run that produced it) verbatim. Two replicas
// computing the same result therefore publish byte-identical payloads.
// The returned SHA-256 of the payload is the response's result_sha,
// and equals the artifact store's object SHA for the same payload.
func encodeResultPayload(resp *MapResponse) ([]byte, string, error) {
	canon := *resp
	canon.ElapsedMillis = 0
	canon.TraceID = ""
	canon.ResultCache = ""
	canon.ResultSHA = ""
	canon.CacheHit = false
	if canon.SGStoreHit != nil {
		// Presence marks a supergate-with-store run; the value is
		// temperature. By the time a cached copy is replayed the artifact
		// is in the store, so normalize to true (refreshServingMetadata
		// asserts the same on every hit).
		t := true
		canon.SGStoreHit = &t
	}
	payload, err := json.Marshal(&canon)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(payload)
	return payload, hex.EncodeToString(sum[:]), nil
}

// refreshServingMetadata updates the per-serving fields of a response
// decoded from a cached payload. The recorded run may have compiled
// the library or enumerated supergates; this serving did neither, so
// CacheHit is true by definition and SGStoreHit (documented as
// "enumeration was skipped, by this process or an earlier one") is
// true whenever the artifact exists. Engine counters are left as the
// recorded run's — they describe how the artifact was produced.
func refreshServingMetadata(resp *MapResponse) {
	resp.CacheHit = true
	if resp.SGStoreHit != nil {
		t := true
		resp.SGStoreHit = &t
	}
}

// decodeResultPayload is encodeResultPayload's inverse.
func decodeResultPayload(payload []byte) (*MapResponse, error) {
	var resp MapResponse
	if err := json.Unmarshal(payload, &resp); err != nil {
		return nil, fmt.Errorf("decoding cached mapping result: %v", err)
	}
	return &resp, nil
}

// canonTail is the suffix every canonical payload ends with: elapsed_ms
// is the last non-omitempty MapResponse field and encodeResultPayload
// zeroes it, and every field after it is omitempty and zeroed.
// canonCacheHit is the one always-present field a cached serving must
// flip. Both are shape assumptions about our own encoder, checked at
// serve time — a payload that does not match (say, written to the
// store by a build with a different field layout) falls back to the
// decode path below.
var (
	canonTail     = []byte(`"elapsed_ms":0}`)
	canonCacheHit = []byte(`,"cache_hit":false`)
)

// spliceCachedResponse turns a canonical payload into the wire
// response without decoding it: flip cache_hit and rewrite the tail
// with the real elapsed time and the serving-only fields. On a large
// netlist the JSON round trip costs tens of milliseconds; this is one
// copy. Searching for the raw `,"cache_hit":` bytes is sound because
// an unescaped quote cannot occur inside a JSON string value, so the
// first match is the field itself. The spliced serving-only members
// ride at the object's tail rather than in struct order — member
// order carries no meaning, and result_sha addresses the canonical
// form, not the wire form.
func spliceCachedResponse(payload []byte, elapsedMillis float64, traceID, tier, sha string) ([]byte, bool) {
	if !bytes.HasSuffix(payload, canonTail) {
		return nil, false
	}
	i := bytes.Index(payload, canonCacheHit)
	if i < 0 {
		return nil, false
	}
	body := payload[:len(payload)-len(canonTail)]
	out := make([]byte, 0, len(body)+len(traceID)+len(sha)+96)
	out = append(out, body[:i]...)
	out = append(out, `,"cache_hit":true`...)
	out = append(out, body[i+len(canonCacheHit):]...)
	out = append(out, `"result_cache":`...)
	out = strconv.AppendQuote(out, tier)
	out = append(out, `,"result_sha":`...)
	out = strconv.AppendQuote(out, sha)
	out = append(out, `,"elapsed_ms":`...)
	out = strconv.AppendFloat(out, elapsedMillis, 'g', -1, 64)
	if traceID != "" {
		out = append(out, `,"trace_id":`...)
		out = strconv.AppendQuote(out, traceID)
	}
	out = append(out, '}', '\n')
	return out, true
}

// requestTimeout resolves a request's per-run deadline against the
// server's default and cap.
func (s *Server) requestTimeout(req *MapRequest) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}
	return timeout
}

// serveMapCached is the /map body for cacheable requests when result
// caching is on. It returns the response status (the caller's deferred
// access-log/flight-recorder hooks use it); every path has already
// written the response. Parse and digest happen before admission so
// hits never consume a run slot.
func (s *Server) serveMapCached(w http.ResponseWriter, r *http.Request, req *MapRequest, traceID string, ph *reqPhases) int {
	fail := func(st int, format string, args ...any) int {
		ph.errMsg = fmt.Sprintf(format, args...)
		s.failure(w, st, format, args...)
		return st
	}
	mode := req.modeName()
	ph.mode = mode

	libKey, err := libraryCacheKey(req)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	// Fastest path first: the raw-request lookaside recognizes a
	// repeated request by hashing its bytes, before any parsing — on a
	// large netlist the parse alone costs orders of magnitude more than
	// this lookup.
	blifSum := sha256.Sum256([]byte(req.BLIF))
	rawKey := rawRequestKey(hex.EncodeToString(blifSum[:]), libKey, mode, req)
	start := time.Now()
	if v, ok := s.resultCache.getRaw(rawKey); ok {
		s.metrics.rcMemHits.Add(1)
		return s.respondCached(w, traceID, v, resultHitMem, start, ph, fail)
	}

	g, err := ingest(req, ph)
	if err != nil {
		return fail(http.StatusBadRequest, "%v", err)
	}
	digest := g.Digest()
	ph.subjectSHA = digest
	key := resultKey(digest, libKey, mode, req)
	start = time.Now()

	if v, ok := s.resultCache.get(key); ok {
		s.metrics.rcMemHits.Add(1)
		s.resultCache.link(rawKey, key)
		return s.respondCached(w, traceID, v, resultHitMem, start, ph, fail)
	}
	if s.store != nil {
		if e, ok := s.store.Get(resultKind, key); ok {
			v := rcViewOfEntry(e, digest)
			s.resultCache.put(key, v)
			s.resultCache.link(rawKey, key)
			s.metrics.rcDiskHits.Add(1)
			return s.respondCached(w, traceID, v, resultHitDisk, start, ph, fail)
		}
	}

	timeout := s.requestTimeout(req)
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	for {
		c, leader := s.flights.join(key)
		if leader {
			return s.runResultLeader(ctx, w, req, g, mode, key, rawKey, c, traceID, timeout, start, ph, fail)
		}
		// Follower: wait on the leader's run without holding an
		// admission slot; the wait is queue time.
		wait0 := time.Now()
		select {
		case <-c.done:
			ph.queue += time.Since(wait0)
			if c.view.payload != nil {
				s.metrics.rcCoalesced.Add(1)
				s.resultCache.link(rawKey, key)
				return s.respondCached(w, traceID, c.view, resultCoalesced, start, ph, fail)
			}
			if c.ctxErr {
				// The leader died of its own cancellation or deadline; our
				// budget is intact. Re-check the cache (the leader may have
				// published before dying) and elect a new leader.
				if v, ok := s.resultCache.get(key); ok {
					s.metrics.rcMemHits.Add(1)
					return s.respondCached(w, traceID, v, resultHitMem, start, ph, fail)
				}
				continue
			}
			// A non-context failure is deterministic for identical input:
			// adopt the leader's outcome instead of re-failing the engine.
			return fail(c.status, "%s", c.errMsg)
		case <-ctx.Done():
			ph.queue += time.Since(wait0)
			if errors.Is(ctx.Err(), context.DeadlineExceeded) {
				return fail(http.StatusGatewayTimeout, "mapping timed out after %v", timeout)
			}
			s.metrics.canceled.Add(1)
			ph.errMsg = "request cancelled"
			writeJSON(w, statusClientClosedRequest, errorResponse{Error: "request cancelled"})
			return statusClientClosedRequest
		}
	}
}

// runResultLeader runs the mapping for a flight it leads: admission,
// library resolution, the engine run, then publication to the
// in-memory cache, the artifact store, and the flight's followers.
// Every return path settles the flight — followers must never wait on
// a leader that has already responded.
func (s *Server) runResultLeader(ctx context.Context, w http.ResponseWriter, req *MapRequest, g *dagcover.SubjectGraph, mode string, key, rawKey store.Key, c *flightCall, traceID string, timeout time.Duration, start time.Time, ph *reqPhases, fail func(int, string, ...any) int) int {
	settle := func(st int, errMsg string, ctxErr bool) {
		c.status, c.errMsg, c.ctxErr = st, errMsg, ctxErr
		s.flights.leaderDone(key, c)
	}

	queueStart := time.Now()
	if err := s.adm.acquire(ctx); err != nil {
		ph.queue += time.Since(queueStart)
		if errors.Is(err, errOverloaded) {
			// Followers adopt the shed: they would hit the same full
			// queue, and waiting them out would hide the overload.
			msg := fmt.Sprintf("overloaded: %d mappings running and %d queued; retry later",
				s.cfg.Concurrency, s.cfg.QueueDepth)
			settle(http.StatusTooManyRequests, msg, false)
			return fail(http.StatusTooManyRequests, "%s", msg)
		}
		settle(0, "", true)
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			return fail(http.StatusGatewayTimeout, "mapping timed out after %v", timeout)
		}
		s.metrics.canceled.Add(1)
		ph.errMsg = "request cancelled while queued"
		writeJSON(w, statusClientClosedRequest, errorResponse{Error: "request cancelled while queued"})
		return statusClientClosedRequest
	}
	ph.queue += time.Since(queueStart)
	defer s.adm.release()

	t0 := time.Now()
	lib, err := s.resolveLibrary(req)
	ph.compile = time.Since(t0)
	if err != nil {
		settle(http.StatusBadRequest, err.Error(), false)
		return fail(http.StatusBadRequest, "%v", err)
	}
	resp, st, err := s.mapWith(ctx, req, g, lib, ph)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			settle(0, "", true)
			return fail(http.StatusGatewayTimeout, "mapping timed out after %v", timeout)
		case errors.Is(err, context.Canceled):
			settle(0, "", true)
			s.metrics.canceled.Add(1)
			ph.errMsg = "request cancelled"
			writeJSON(w, statusClientClosedRequest, errorResponse{Error: "request cancelled"})
			return statusClientClosedRequest
		default:
			settle(st, err.Error(), false)
			return fail(st, "%v", err)
		}
	}

	payload, sha, err := encodeResultPayload(resp)
	if err != nil {
		settle(http.StatusInternalServerError, err.Error(), false)
		return fail(http.StatusInternalServerError, "%v", err)
	}
	s.metrics.rcMisses.Add(1)
	view := rcView{payload: payload, sha: sha, genMillis: millis(ph.mapRun),
		library: resp.Library, subjectSHA: resp.SubjectSHA}
	s.resultCache.put(key, view)
	s.resultCache.link(rawKey, key)
	s.storeResult(key, view, resp.Circuit, mode)
	c.view = view
	s.flights.leaderDone(key, c)

	elapsed := time.Since(start)
	resp.ElapsedMillis = millis(elapsed)
	resp.TraceID = traceID
	resp.ResultCache = resultMiss
	resp.ResultSHA = sha
	ph.resultCache = resultMiss
	s.metrics.recordServed(resp.Library, elapsed, resp.PatternsTried, resp.MemoHits, resp.MemoMisses)
	writeJSON(w, http.StatusOK, resp)
	return http.StatusOK
}

// respondCached serves one /map request from a cached payload, filling
// the per-request volatile fields. Hits and coalesced responses
// contribute zero engine work to the counters — patterns_tried staying
// flat across a warm replay is how tests prove no label-phase work
// ran. When the payload matches the canonical shape and the view
// carries its sidecar metadata, the response is byte-spliced without a
// JSON round trip; otherwise it decodes and re-encodes.
func (s *Server) respondCached(w http.ResponseWriter, traceID string, v rcView, tier string, start time.Time, ph *reqPhases, fail func(int, string, ...any) int) int {
	t0 := time.Now()
	elapsed := time.Since(start)
	if v.library != "" {
		if body, ok := spliceCachedResponse(v.payload, millis(elapsed), traceID, tier, v.sha); ok {
			ph.library, ph.cacheHit = v.library, true
			ph.resultCache = tier
			if ph.subjectSHA == "" {
				// Raw-lookaside hits never parsed the input; the entry knows
				// which subject graph it answers for.
				ph.subjectSHA = v.subjectSHA
			}
			s.metrics.recordServed(v.library, elapsed, 0, 0, 0)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(body)
			ph.respond = time.Since(t0)
			return http.StatusOK
		}
	}
	resp, err := decodeResultPayload(v.payload)
	if err != nil {
		// Disk payloads are SHA-verified by the store and memory payloads
		// are our own bytes, so this is a code bug, not data corruption.
		return fail(http.StatusInternalServerError, "%v", err)
	}
	resp.ElapsedMillis = millis(elapsed)
	resp.TraceID = traceID
	resp.ResultCache = tier
	resp.ResultSHA = v.sha
	refreshServingMetadata(resp)
	ph.library, ph.cacheHit = resp.Library, true
	ph.resultCache = tier
	if ph.subjectSHA == "" {
		ph.subjectSHA = resp.SubjectSHA
	}
	s.metrics.recordServed(resp.Library, elapsed, 0, 0, 0)
	writeJSON(w, http.StatusOK, resp)
	ph.respond = time.Since(t0)
	return http.StatusOK
}

// mapItemCached is the batch-item counterpart of serveMapCached: same
// key, same tiers, but no flight group — a job item already holds its
// batch's admission slot, and joining a /map flight from under it
// could deadlock the pool (the leader it waits for needs the slot the
// item is holding).
func (s *Server) mapItemCached(ctx context.Context, req *MapRequest, lib library, ph *reqPhases) (*MapResponse, int, error) {
	mode := req.modeName()
	libKey, err := libraryCacheKey(req)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	blifSum := sha256.Sum256([]byte(req.BLIF))
	rawKey := rawRequestKey(hex.EncodeToString(blifSum[:]), libKey, mode, req)

	serveHit := func(v rcView, tier string) (*MapResponse, int, error) {
		// Job items embed the decoded response in their NDJSON record, so
		// the byte-splice shortcut does not apply here.
		resp, err := decodeResultPayload(v.payload)
		if err != nil {
			return nil, http.StatusInternalServerError, err
		}
		resp.ResultCache = tier
		resp.ResultSHA = v.sha
		refreshServingMetadata(resp)
		ph.library, ph.cacheHit = resp.Library, true
		ph.resultCache = tier
		if ph.subjectSHA == "" {
			ph.subjectSHA = resp.SubjectSHA
		}
		return resp, http.StatusOK, nil
	}
	// As on /map, the raw lookaside recognizes a repeated item before
	// any parsing.
	if v, ok := s.resultCache.getRaw(rawKey); ok {
		s.metrics.rcMemHits.Add(1)
		return serveHit(v, resultHitMem)
	}

	g, err := ingest(req, ph)
	if err != nil {
		return nil, http.StatusBadRequest, err
	}
	digest := g.Digest()
	ph.subjectSHA = digest
	key := resultKey(digest, libKey, mode, req)

	if v, ok := s.resultCache.get(key); ok {
		s.metrics.rcMemHits.Add(1)
		s.resultCache.link(rawKey, key)
		return serveHit(v, resultHitMem)
	}
	if s.store != nil {
		if e, ok := s.store.Get(resultKind, key); ok {
			v := rcViewOfEntry(e, digest)
			s.resultCache.put(key, v)
			s.resultCache.link(rawKey, key)
			s.metrics.rcDiskHits.Add(1)
			return serveHit(v, resultHitDisk)
		}
	}

	resp, st, err := s.mapWith(ctx, req, g, lib, ph)
	if err != nil {
		return resp, st, err
	}
	payload, sha, err := encodeResultPayload(resp)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	s.metrics.rcMisses.Add(1)
	view := rcView{payload: payload, sha: sha, genMillis: millis(ph.mapRun),
		library: resp.Library, subjectSHA: resp.SubjectSHA}
	s.resultCache.put(key, view)
	s.resultCache.link(rawKey, key)
	s.storeResult(key, view, resp.Circuit, mode)
	resp.ResultCache = resultMiss
	resp.ResultSHA = sha
	ph.resultCache = resultMiss
	return resp, http.StatusOK, nil
}

// storeResult publishes a freshly computed result to the artifact
// store (a no-op without one), with the metadata a future process
// needs to serve the entry without decoding it.
func (s *Server) storeResult(key store.Key, v rcView, circuit, mode string) {
	if s.store == nil {
		return
	}
	if err := s.store.Put(resultKind, key, v.payload, v.genMillis,
		map[string]string{"circuit": circuit, "library": v.library,
			"mode": mode, "subject_sha": v.subjectSHA}); err != nil {
		s.metrics.rcStoreErrors.Add(1)
	} else {
		s.metrics.rcStores.Add(1)
	}
}

// rcViewOfEntry adapts a store entry into a cache view. The subject
// digest comes from the caller (who just computed it to build the
// key) rather than the entry header, so an entry written by an older
// header layout still serves correctly.
func rcViewOfEntry(e store.Entry, digest string) rcView {
	return rcView{payload: e.Data, sha: e.SHA, genMillis: e.GenMillis,
		library: e.Meta["library"], subjectSHA: digest}
}
