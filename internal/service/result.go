package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"dagcover"
	"dagcover/internal/store"
)

// The request pipeline and its whole-result cache stages. The mapper
// is deterministic — the same (subject graph, compiled library,
// options) triple always emits a byte-identical netlist — so a mapping
// *response* is a pure function of content-addressable inputs and can
// be cached whole: ingest and digest come before admission, and memory
// and disk hits are served without a run slot. Every miss computes and
// publishes on its own: N concurrent identical misses cost up to N
// engine runs, bounded by admission, and publish the same bytes.

// resultKind is the artifact-store object kind and key-format version
// for cached mapping results. Bumping it (mapres5, ...) rotates every
// key, which is how a change to response serialization or mapping
// semantics invalidates old entries: they are orphaned for the GC,
// never misread. mapres2: exact matches stopped covering
// output-driving nodes, which changed some tree-mode netlists.
// mapres3: memo_hits and memo_misses left the canonical payload, and
// the memo setting left the key. mapres4: sg_store_hit and
// sg_artifact_sha left it, so a server with an artifact store and one
// without publish the same result_sha. mapres5: the payload stopped
// HTML-escaping '<', '>' and '&', as computed responses never did.
const resultKind = "mapres5"

// result_cache tiers reported in responses and access-log records.
const (
	resultHitMem  = "hit-mem"
	resultHitDisk = "hit-disk"
	resultMiss    = "miss"
)

// cachesResult is the one predicate for the pipeline's cache stages:
// the server caches results and the request's mode is dag or tree. LUT
// responses carry no subject digest (and LUT mode no library key);
// unknown modes fail in mapWith with their 400.
func (s *Server) cachesResult(req *MapRequest) bool {
	if s.resultCache == nil {
		return false
	}
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
		name := req.libraryName()
		if _, ok := dagcover.BuiltinLibrary(name); !ok {
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
// as "the same request". The memo setting is not keyed: the netlist is
// identical with the memo on or off, and the only fields it moves,
// memo_hits and memo_misses, are zeroed in the canonical payload. Verify changes the Verified field
// (and whether verification ran), so it is keyed.
func optionParts(req *MapRequest, mode string) []string {
	class := req.Class
	if class == "" {
		class = "standard"
	}
	delay := req.Delay
	if delay == "" {
		delay = "intrinsic"
	}
	return []string{
		mode,
		class,
		delay,
		fmt.Sprintf("ar=%t", req.AreaRecovery),
		fmt.Sprintf("rt=%g", req.RequiredTime),
		fmt.Sprintf("verify=%t", req.Verify),
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
// this particular process had resident, or on whether it has a store
// at all (the supergate artifact fields), rather than on the result —
// zeroed, and so are the memo counts, which depend on the memo
// setting, which the key leaves out.
// Everything else (netlist, delay, cells, the run's pattern and match
// counts) is kept verbatim. Two replicas computing the same result
// therefore publish byte-identical payloads. The encoding is
// encodeJSON's, the one a computed response goes out in (no HTML
// escaping, no trailing newline), so a cached serving carries the same
// netlist bytes as the miss did.
// The returned SHA-256 of the payload is the response's result_sha,
// and equals the artifact store's object SHA for the same payload.
func encodeResultPayload(resp *MapResponse) ([]byte, string, error) {
	canon := *resp
	canon.ElapsedMillis = 0
	canon.MemoHits, canon.MemoMisses = 0, 0
	canon.TraceID = ""
	canon.ResultCache = ""
	canon.ResultSHA = ""
	canon.CacheHit = false
	canon.SGStoreHit, canon.SGArtifactSHA = nil, ""
	payload, err := encodeJSON(&canon)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(payload)
	return payload, hex.EncodeToString(sum[:]), nil
}

// canonTail is the suffix every canonical payload ends with: elapsed_ms
// is the last non-omitempty MapResponse field and encodeResultPayload
// zeroes it, and every field after it is omitempty and zeroed.
// canonCacheHit is the one always-present field a cached serving must
// flip. Both are shape assumptions about our own encoder. Payloads
// enter from outside the process only through the disk tier, where
// lookup checks them (canonicalPayload) before anything serves them.
var (
	canonTail     = []byte(`"elapsed_ms":0}`)
	canonCacheHit = []byte(`,"cache_hit":false`)
)

// canonicalPayload reports whether payload has the shape
// spliceCachedResponse relies on.
func canonicalPayload(payload []byte) bool {
	return bytes.HasSuffix(payload, canonTail) && bytes.Contains(payload, canonCacheHit)
}

// spliceCachedResponse turns a cached view's canonical payload into
// the wire response without decoding it: flip cache_hit and rewrite the
// tail with the real elapsed time and the serving-only fields. On a
// large netlist the JSON round trip costs tens of milliseconds; this is
// one copy. Searching for the raw `,"cache_hit":` bytes is sound
// because an unescaped quote cannot occur inside a JSON string value,
// so the first match is the field itself. The spliced serving-only
// members ride at the object's tail rather than in struct order —
// member order carries no meaning, and result_sha addresses the
// canonical form, not the wire form. The view's supergate artifact
// SHA, when there is one, comes back with sg_store_hit true:
// enumeration was skipped, by this process or an earlier one. Engine
// counters stay the recorded run's; they describe how the result was
// produced. The output carries no trailing newline.
func spliceCachedResponse(v rcView, elapsedMillis float64, traceID, tier string) []byte {
	i := bytes.Index(v.payload, canonCacheHit)
	body := v.payload[:len(v.payload)-len(canonTail)]
	out := make([]byte, 0, len(body)+len(traceID)+len(v.sha)+96)
	out = append(out, body[:i]...)
	out = append(out, `,"cache_hit":true`...)
	out = append(out, body[i+len(canonCacheHit):]...)
	out = append(out, `"result_cache":`...)
	out = strconv.AppendQuote(out, tier)
	out = append(out, `,"result_sha":`...)
	out = strconv.AppendQuote(out, v.sha)
	if v.sgArtifactSHA != "" {
		out = append(out, `,"sg_store_hit":true,"sg_artifact_sha":`...)
		out = strconv.AppendQuote(out, v.sgArtifactSHA)
	}
	out = append(out, `,"elapsed_ms":`...)
	out = strconv.AppendFloat(out, elapsedMillis, 'g', -1, 64)
	if traceID != "" {
		out = append(out, `,"trace_id":`...)
		out = strconv.AppendQuote(out, traceID)
	}
	return append(out, '}')
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

// outcome is what the pipeline hands back to its endpoint: a computed
// response, or a cached payload and the tier that served it, or an
// error and the status the failing stage chose (see classify).
type outcome struct {
	resp   *MapResponse
	view   rcView
	tier   string
	status int
	err    error
}

// failed is the outcome of a stage that rejected the request.
func failed(status int, err error) outcome { return outcome{status: status, err: err} }

// mapRequest is the request pipeline: every /map request and every
// /jobs item, in every mode and cache setting, reaches mapWith through
// it, in five stages:
//
//  1. raw lookaside: a repeated request is recognized by hashing its
//     bytes, before any parsing;
//  2. ingest, then the subject-graph digest;
//  3. the memory tier, then the disk tier;
//  4. compute: admission, library resolution and mapWith;
//  5. publish to both tiers.
//
// The cache stages (1, 3, 5 and the digest) take part only when
// cachesResult says so; otherwise they pass through. The library key is
// checked first on every path that uses a library (all but lut), so
// every path reports faults in one order: library key, BLIF, then
// library compile and options. A batch item passes its batch's library:
// it already holds the batch's admission slot, so it skips admission.
// ctx is the client's (or the job's) context; the request's timeout is
// applied here.
func (s *Server) mapRequest(ctx context.Context, req *MapRequest, batch *library, ph *reqPhases) outcome {
	mode := req.modeName()
	ph.mode = mode
	var libKey string
	if req.Mode != "lut" {
		var err error
		if libKey, err = libraryCacheKey(req); err != nil {
			return failed(http.StatusBadRequest, err)
		}
	}
	cached := s.cachesResult(req)
	var rawKey store.Key
	if cached {
		blifSum := sha256.Sum256([]byte(req.BLIF))
		rawKey = rawRequestKey(hex.EncodeToString(blifSum[:]), libKey, mode, req)
		if v, ok := s.resultCache.getRaw(rawKey); ok {
			s.metrics.rcMemHits.Add(1)
			return servedFrom(v, resultHitMem, ph)
		}
	}

	g, err := ingest(req, ph)
	if err != nil {
		return failed(http.StatusBadRequest, err)
	}
	var key store.Key
	if cached {
		digest := g.Digest()
		ph.subjectSHA = digest
		key = resultKey(digest, libKey, mode, req)
		if out, ok := s.lookup(key, rawKey, digest, ph); ok {
			return out
		}
	}
	// Compute runs under the request's deadline, which also bounds the
	// wait for a run slot. Hits never arm its timer.
	ctx, cancel := context.WithTimeout(ctx, s.requestTimeout(req))
	defer cancel()
	out := s.compute(ctx, req, g, batch, ph)
	if !cached {
		return out
	}
	return s.publish(out, key, rawKey, ph)
}

// lookup is stage 3: the memory tier, then the disk tier. A disk hit
// warms the memory tier; both link the raw key to the entry. A disk
// object without the canonical shape or without library metadata (say,
// one written by a build with another field layout) is a miss, for the
// store's counters too: the request recomputes and republishes it.
func (s *Server) lookup(key, rawKey store.Key, digest string, ph *reqPhases) (outcome, bool) {
	if v, ok := s.resultCache.get(key); ok {
		s.metrics.rcMemHits.Add(1)
		s.resultCache.link(rawKey, key)
		return servedFrom(v, resultHitMem, ph), true
	}
	if s.store == nil {
		return outcome{}, false
	}
	e, ok := s.store.GetIf(resultKind, key, func(e store.Entry) bool {
		return canonicalPayload(e.Data) && e.Meta["library"] != ""
	})
	if !ok {
		return outcome{}, false
	}
	v := rcViewOfEntry(e, digest)
	s.resultCache.put(key, v)
	s.resultCache.link(rawKey, key)
	s.metrics.rcDiskHits.Add(1)
	return servedFrom(v, resultHitDisk, ph), true
}

// servedFrom is the outcome of a cache-served request. It attributes
// the request to the entry; a raw-lookaside hit never parsed the input,
// so the entry says which subject graph it answers for.
func servedFrom(v rcView, tier string, ph *reqPhases) outcome {
	ph.library, ph.cacheHit, ph.resultCache = v.library, true, tier
	if ph.subjectSHA == "" {
		ph.subjectSHA = v.subjectSHA
	}
	return outcome{view: v, tier: tier}
}

// errQueued marks a context error that ended a wait for a run slot.
var errQueued = errors.New("while queued")

// compute is stage 4: admission (under the request's
// deadline), library resolution and the engine run. A batch item
// brings its batch's library and slot. The slot is released once the
// response is rendered; publishing and encoding need none.
func (s *Server) compute(ctx context.Context, req *MapRequest, g *dagcover.SubjectGraph, lib *library, ph *reqPhases) outcome {
	if lib == nil {
		queueStart := time.Now()
		err := s.adm.acquire(ctx)
		ph.dur[phaseQueue] += time.Since(queueStart)
		if err != nil {
			return failed(0, fmt.Errorf("%w %w", err, errQueued))
		}
		defer s.adm.release()
		t0 := time.Now()
		resolved, err := s.resolveLibrary(req)
		ph.dur[phaseCompile] = time.Since(t0)
		if err != nil {
			return failed(http.StatusBadRequest, err)
		}
		lib = &resolved
	}
	resp, status, err := s.mapWith(ctx, req, g, *lib, ph)
	return outcome{resp: resp, status: status, err: err}
}

// publish is stage 5: a computed result enters the memory tier and the
// artifact store, and its canonical form becomes the outcome's view.
// Concurrent identical publishes are safe: put refreshes an existing
// key, link ignores duplicates, and the store writes a temp file and
// renames it. Encoding the payload
// and the store's write and fsync are charged to the respond phase.
func (s *Server) publish(out outcome, key, rawKey store.Key, ph *reqPhases) outcome {
	if out.err != nil {
		return out
	}
	t0 := time.Now()
	defer func() { ph.dur[phaseRespond] += time.Since(t0) }()
	resp := out.resp
	payload, sha, err := encodeResultPayload(resp)
	if err != nil {
		return failed(http.StatusInternalServerError, err)
	}
	s.metrics.rcMisses.Add(1)
	out.view = rcView{payload: payload, sha: sha, genMillis: millis(ph.dur[phaseMap]),
		library: resp.Library, subjectSHA: resp.SubjectSHA, sgArtifactSHA: resp.SGArtifactSHA}
	s.resultCache.put(key, out.view)
	s.resultCache.link(rawKey, key)
	s.storeResult(key, out.view, resp.Circuit, ph.mode)
	resp.ResultCache, resp.ResultSHA = resultMiss, sha
	ph.resultCache = resultMiss
	return out
}

// classify is the one map from a pipeline error to its status and
// message: overload → 429, deadline → 504, cancellation → 499, and any
// other error the status its stage chose. A job item (item true) names
// itself in its timeout, reports a cancellation as the job's, and
// records every other failure as 400, a verification failure included.
func (s *Server) classify(err error, status int, timeout time.Duration, item bool) (int, string) {
	switch {
	case errors.Is(err, errOverloaded):
		return http.StatusTooManyRequests, fmt.Sprintf("overloaded: %d mappings running and %d queued; retry later",
			s.cfg.Concurrency, s.cfg.QueueDepth)
	case errors.Is(err, context.DeadlineExceeded) && item:
		return http.StatusGatewayTimeout, fmt.Sprintf("item timed out after %v", timeout)
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, fmt.Sprintf("mapping timed out after %v", timeout)
	case errors.Is(err, context.Canceled) && item:
		return statusClientClosedRequest, "job cancelled"
	case errors.Is(err, context.Canceled) && errors.Is(err, errQueued):
		return statusClientClosedRequest, "request cancelled while queued"
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest, "request cancelled"
	case item:
		return http.StatusBadRequest, err.Error()
	}
	return status, err.Error()
}

// storeResult publishes a freshly computed result to the artifact
// store (a no-op without one), with the metadata a future process
// needs to serve the entry without decoding it.
func (s *Server) storeResult(key store.Key, v rcView, circuit, mode string) {
	if s.store == nil {
		return
	}
	meta := map[string]string{"circuit": circuit, "library": v.library,
		"mode": mode, "subject_sha": v.subjectSHA}
	if v.sgArtifactSHA != "" {
		meta["sg_artifact_sha"] = v.sgArtifactSHA
	}
	if err := s.store.Put(resultKind, key, v.payload, v.genMillis, meta); err != nil {
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
		library: e.Meta["library"], subjectSHA: digest, sgArtifactSHA: e.Meta["sg_artifact_sha"]}
}
