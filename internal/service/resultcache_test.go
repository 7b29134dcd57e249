package service

import (
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
	"dagcover/internal/network"
	"dagcover/internal/store"
)

// Tests for the whole-result cache: the in-memory LRU, the disk tier
// behind the artifact store, request coalescing, and the invariant the
// whole design rests on — the mapped netlist is byte-identical whether
// the cache is off, cold, warm, or another request computed it.

// rcKey builds a distinct cache key for LRU unit tests.
func rcKey(i int) store.Key { return store.KeyOf("test", fmt.Sprintf("k%d", i)) }

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(100)
	pay := func(n int) []byte { return bytes.Repeat([]byte{'x'}, n) }
	put := func(k, n int) {
		t.Helper()
		c.put(rcKey(k), rcView{payload: pay(n), sha: fmt.Sprint(k), genMillis: float64(k)})
		if _, b, max := c.stats(); b > max {
			t.Fatalf("after put(%d, %d bytes): %d bytes held, budget %d", k, n, b, max)
		}
	}
	has := func(k int) bool { _, ok := c.get(rcKey(k)); return ok }

	put(1, 40)
	put(2, 40)
	if n, b, _ := c.stats(); n != 2 || b != 80 {
		t.Fatalf("after two inserts: %d entries, %d bytes", n, b)
	}
	// A hit returns the payload and metadata and refreshes recency.
	v, ok := c.get(rcKey(1))
	if !ok || string(v.payload) != string(pay(40)) || v.sha != "1" || v.genMillis != 1 {
		t.Fatalf("get(1) = %+v %v", v, ok)
	}
	// Inserting past the budget evicts the least recently used entry:
	// key 2, since the hit refreshed key 1.
	put(3, 40)
	if has(2) {
		t.Error("least recently used entry survived eviction")
	}
	if !has(1) || !has(3) {
		t.Error("a recently used entry was evicted")
	}
	// Recency is now 3, 1 (most recent first): the next insert takes 1.
	put(4, 40)
	if has(1) || !has(3) || !has(4) {
		t.Error("eviction did not take the least recently used entry")
	}

	// A duplicate put adds no bytes (the key is a content address, so
	// same key means same payload) and refreshes recency: with 3
	// refreshed, the next insert takes 4.
	_, before, _ := c.stats()
	put(3, 40)
	if _, after, _ := c.stats(); after != before {
		t.Errorf("duplicate put changed bytes %d -> %d", before, after)
	}
	put(5, 40)
	if has(4) || !has(3) || !has(5) {
		t.Error("a duplicate put did not refresh recency")
	}
	// An insert evicts as many entries as the budget needs.
	put(6, 90)
	if n, b, _ := c.stats(); n != 1 || b != 90 || !has(6) {
		t.Errorf("after a 90-byte insert: %d entries, %d bytes", n, b)
	}

	// A payload over the whole budget is not cached and evicts nothing.
	put(7, 101)
	if has(7) {
		t.Error("oversized payload was cached")
	}
	if !has(6) {
		t.Error("an oversized payload evicted an entry")
	}
}

func TestResultCacheRawLookaside(t *testing.T) {
	pay := func(n int) []byte { return bytes.Repeat([]byte{'y'}, n) }
	rawOf := func(i int) store.Key { return store.KeyOf("raw", fmt.Sprintf("r%d", i)) }

	c := newResultCache(100)
	c.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c.put(rcKey(2), rcView{payload: pay(40), sha: "b", genMillis: 2})
	// Linking to an absent entry is a no-op, not a dangling alias.
	c.link(rawOf(0), rcKey(99))
	if _, ok := c.getRaw(rawOf(0)); ok {
		t.Error("alias to a missing entry resolved")
	}
	c.link(rawOf(1), rcKey(1))
	if v, ok := c.getRaw(rawOf(1)); !ok || v.sha != "a" || v.genMillis != 1 || len(v.payload) != 40 {
		t.Fatalf("raw lookup = %v %+v", ok, v)
	}
	// A raw hit refreshes recency exactly like a canonical hit: the next
	// insert evicts key 2, not key 1.
	c.put(rcKey(3), rcView{payload: pay(40), sha: "c", genMillis: 3})
	if _, ok := c.get(rcKey(2)); ok {
		t.Error("raw hit did not refresh recency: key 2 survived")
	}
	if _, ok := c.getRaw(rawOf(1)); !ok {
		t.Error("raw hit did not refresh recency: key 1 was evicted")
	}
	// Two raw keys (different BLIF formatting) may alias one entry.
	c.link(rawOf(2), rcKey(1))
	if v, ok := c.getRaw(rawOf(2)); !ok || v.sha != "a" {
		t.Error("second alias unresolved")
	}

	// Eviction takes the aliases with the entry.
	c2 := newResultCache(100)
	c2.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c2.link(rawOf(1), rcKey(1))
	c2.put(rcKey(2), rcView{payload: pay(40), sha: "b", genMillis: 2})
	c2.put(rcKey(3), rcView{payload: pay(40), sha: "c", genMillis: 3}) // evicts key 1, the least recently used
	if _, ok := c2.get(rcKey(1)); ok {
		t.Fatal("key 1 survived eviction")
	}
	if _, ok := c2.getRaw(rawOf(1)); ok {
		t.Error("raw alias outlived its entry")
	}
	// Re-inserting relinks cleanly.
	c2.put(rcKey(1), rcView{payload: pay(40), sha: "a", genMillis: 1})
	c2.link(rawOf(1), rcKey(1))
	if v, ok := c2.getRaw(rawOf(1)); !ok || v.sha != "a" {
		t.Error("relink after re-insert failed")
	}
}

func TestSpliceCachedResponse(t *testing.T) {
	tr := true
	orig := &MapResponse{
		Circuit: "c", Library: "lib2", Mode: "dag",
		Netlist: ".model c\n.gate nand2 a=x<0> b=y&1 O=z \" quote\n.end\n",
		Delay:   3.5, Area: 7, Cells: 2, PatternsTried: 11,
		SGStoreHit: &tr, SGArtifactSHA: "deadbeef", SubjectSHA: "feedface",
		Verified: true,
	}
	payload, sha, err := encodeResultPayload(orig)
	if err != nil {
		t.Fatal(err)
	}
	if !canonicalPayload(payload) {
		t.Fatalf("encodeResultPayload output is not canonical: %s", payload)
	}
	for _, c := range []struct{ traceID, sgArtifactSHA string }{{"trace-1", "deadbeef"}, {"", ""}} {
		v := rcView{payload: payload, sha: sha, library: "lib2", sgArtifactSHA: c.sgArtifactSHA}
		spliced := spliceCachedResponse(v, 1.25, c.traceID, "hit-mem")
		var got MapResponse
		if err := json.Unmarshal(spliced, &got); err != nil {
			t.Fatalf("spliced output is not valid JSON: %v\n%s", err, spliced)
		}
		// The reference: decode the payload and set the serving fields
		// the splice writes.
		var want MapResponse
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		want.CacheHit = true
		want.ElapsedMillis, want.TraceID = 1.25, c.traceID
		want.ResultCache, want.ResultSHA = "hit-mem", sha
		if c.sgArtifactSHA != "" {
			want.SGStoreHit, want.SGArtifactSHA = &tr, c.sgArtifactSHA
		}
		gw, _ := json.Marshal(&got)
		ww, _ := json.Marshal(&want)
		if string(gw) != string(ww) {
			t.Errorf("splice and decode disagree:\n  splice: %s\n  decode: %s", gw, ww)
		}
		if !got.CacheHit || got.Netlist != orig.Netlist {
			t.Errorf("spliced fields wrong: %+v", got)
		}
	}

	// Payloads without the canonical shape are caught before a splice.
	for _, bad := range [][]byte{
		[]byte(`{"circuit":"c","cache_hit":false,"elapsed_ms":1}`), // non-zero tail
		[]byte(`{"circuit":"c","cache_hit":true,"elapsed_ms":0}`),  // cache_hit already set
		[]byte(`{"circuit":"c","cache_hit":false}`),                // no canonical tail
		[]byte(`{"circuit":"c"}`),                                  // neither field
	} {
		if canonicalPayload(bad) {
			t.Errorf("non-canonical payload %s passed the shape check", bad)
		}
	}
}

// TestStoreObjectWithoutCanonicalShapeMisses checks the disk tier's
// boundary: a store object under the current key whose payload lacks
// the canonical tail, or that carries no library metadata, is served
// as a miss with the freshly computed netlist, counts as a store miss
// (no store hit, no generation time saved), and the recomputed result
// replaces it for the next process.
func TestStoreObjectWithoutCanonicalShapeMisses(t *testing.T) {
	req := MapRequest{BLIF: blifOf(t, bench.Comparator(8)), Library: "44-1"}
	code, want, body := post(t, New(Config{Concurrency: 1, ResultCacheBytes: -1}).Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cache-off request = %d: %s", code, body)
	}
	libKey, err := libraryCacheKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	key := resultKey(want.SubjectSHA, libKey, "dag", &req)
	stale := want
	stale.Netlist = "# stale cover\n"
	canon, _, err := encodeResultPayload(&stale)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		payload []byte
		meta    map[string]string
	}{
		{"no canonical tail", append(bytes.TrimSuffix(canon, canonTail), `"elapsed_ms":5}`...), map[string]string{"library": want.Library}},
		{"no library metadata", canon, nil},
	} {
		dir := t.TempDir()
		if err := openStore(t, dir).Put(resultKind, key, c.payload, 1, c.meta); err != nil {
			t.Fatal(err)
		}
		h := New(Config{Concurrency: 1, Store: openStore(t, dir)}).Handler()
		code, got, body := post(t, h, nil, req)
		if code != http.StatusOK {
			t.Fatalf("%s: request = %d: %s", c.name, code, body)
		}
		if got.ResultCache != resultMiss || got.Netlist != want.Netlist {
			t.Errorf("%s: served %q with netlist %.40q, want a miss with the computed netlist", c.name, got.ResultCache, got.Netlist)
		}
		var stats struct {
			Store struct {
				Hits   uint64  `json:"hits"`
				Misses uint64  `json:"misses"`
				Saved  float64 `json:"generation_seconds_saved"`
			} `json:"store"`
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/stats", nil))
		if err := json.Unmarshal(w.Body.Bytes(), &stats); err != nil {
			t.Fatalf("/stats = %d: %v", w.Code, err)
		}
		if st := stats.Store; st.Hits != 0 || st.Saved != 0 || st.Misses == 0 {
			t.Errorf("%s: a rejected store object counted as store hits %d, generation_seconds_saved %g, misses %d; want 0, 0, > 0",
				c.name, st.Hits, st.Saved, st.Misses)
		}
		code, got, body = post(t, New(Config{Concurrency: 1, Store: openStore(t, dir)}).Handler(), nil, req)
		if code != http.StatusOK || got.ResultCache != resultHitDisk || got.Netlist != want.Netlist {
			t.Errorf("%s: after republishing, a restart served %d %q, want 200 %s with the computed netlist: %.200s",
				c.name, code, got.ResultCache, resultHitDisk, body)
		}
	}
}

// TestJobHitMatchesMapHit checks that a /jobs item served from the
// cache embeds exactly the /map hit's body for the same request, up to
// the per-serving elapsed_ms and trace_id at its tail, supergate
// artifact fields included.
func TestJobHitMatchesMapHit(t *testing.T) {
	s := New(Config{Concurrency: 1, Store: openStore(t, t.TempDir())})
	text := blifOf(t, bench.Comparator(6))
	sg := &SupergateConfig{MaxInputs: 3, MaxDepth: 2, MaxGates: 32}
	for _, req := range []MapRequest{
		{BLIF: text, Library: "44-1"},
		{BLIF: text, Library: "44-1", Supergates: sg, Verify: true},
	} {
		if code, r, body := post(t, s.Handler(), nil, req); code != http.StatusOK || r.ResultCache != resultMiss {
			t.Fatalf("first request = %d %q: %s", code, r.ResultCache, body)
		}
		code, hit, body := post(t, s.Handler(), nil, req)
		if code != http.StatusOK || hit.ResultCache != resultHitMem {
			t.Fatalf("repeat = %d %q: %s", code, hit.ResultCache, body)
		}
		rec := runJob(t, s, JobRequest{Items: []JobItemRequest{{BLIF: req.BLIF}}, Library: req.Library,
			Supergates: req.Supergates, Verify: req.Verify})[0]
		if item := itemResponse(t, rec); rec.Status != http.StatusOK || item.ResultCache != resultHitMem {
			t.Fatalf("job item = %d: %s", rec.Status, rec.Response)
		}
		mapBody, _, ok1 := strings.Cut(body, `,"elapsed_ms":`)
		jobBody, _, ok2 := strings.Cut(string(rec.Response), `,"elapsed_ms":`)
		if req.Supergates != nil && !strings.Contains(mapBody, `"sg_artifact_sha":`) {
			t.Errorf("the supergate hit carries no artifact SHA: %.300s", mapBody)
		}
		if !ok1 || !ok2 || mapBody != jobBody {
			t.Errorf("supergates %v: job item and /map hit differ before elapsed_ms:\n  /map: %.300s\n  /jobs: %.300s",
				req.Supergates != nil, mapBody, jobBody)
		}
	}
}

// escSignalsBLIF is a 44-1 circuit whose signal names an HTML-escaping
// JSON encoder would rewrite.
const escSignalsBLIF = ".model esc\n.inputs a<0> b&1\n.outputs o<0>\n.names a<0> b&1 o<0>\n11 1\n.end\n"

// TestCachedServingsCarryMissBytes checks that the miss, the hit-mem
// serving and a restarted server's hit-disk serving of one result put
// byte-identical netlist field bytes on the wire, for signal names an
// HTML-escaping encoder would rewrite. The raw field bytes are
// compared, not decoded values.
func TestCachedServingsCarryMissBytes(t *testing.T) {
	dir := t.TempDir()
	req := MapRequest{BLIF: escSignalsBLIF, Library: "44-1"}
	netlistBytes := func(h http.Handler, tier string) string {
		t.Helper()
		code, resp, body := post(t, h, nil, req)
		if code != http.StatusOK || resp.ResultCache != tier {
			t.Fatalf("request = %d %q, want 200 %s: %.300s", code, resp.ResultCache, tier, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal([]byte(body), &fields); err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(fields["netlist"], []byte("a<0>")) {
			t.Errorf("%s: netlist field does not carry a<0> verbatim: %s", tier, fields["netlist"])
		}
		return string(fields["netlist"])
	}
	h := New(Config{Concurrency: 1, Store: openStore(t, dir)}).Handler()
	miss := netlistBytes(h, resultMiss)
	if mem := netlistBytes(h, resultHitMem); mem != miss {
		t.Errorf("hit-mem netlist bytes differ from the miss's:\n  miss: %s\n  hit-mem: %s", miss, mem)
	}
	restarted := New(Config{Concurrency: 1, Store: openStore(t, dir)}).Handler()
	if disk := netlistBytes(restarted, resultHitDisk); disk != miss {
		t.Errorf("hit-disk netlist bytes differ from the miss's:\n  miss: %s\n  hit-disk: %s", miss, disk)
	}
}

// TestJobRecordResponseBytes checks that response_bytes is the length
// of the response exactly as the record embeds it, on a miss and a hit,
// for signal names that an HTML-escaping encoder would rewrite.
func TestJobRecordResponseBytes(t *testing.T) {
	s := New(Config{Concurrency: 1})
	items := []JobItemRequest{{Name: "first", BLIF: escSignalsBLIF}, {Name: "repeat", BLIF: escSignalsBLIF}}
	recs := runJob(t, s, JobRequest{Items: items, Library: "44-1"})
	for i, tier := range []string{resultMiss, resultHitMem} {
		rec := recs[i]
		item := itemResponse(t, rec)
		if rec.Status != http.StatusOK || item.ResultCache != tier {
			t.Fatalf("%s: status %d result_cache %q, want 200 %s", rec.Name, rec.Status, item.ResultCache, tier)
		}
		// Computed and cached responses are both embedded unescaped.
		if !strings.Contains(item.Netlist, "a<0>") || !bytes.Contains(rec.Response, []byte("a<0>")) {
			t.Fatalf("%s: the embedded response does not carry the signal names: %.300s", rec.Name, rec.Response)
		}
		if rec.ResponseBytes != len(rec.Response) {
			t.Errorf("%s: response_bytes %d, embedded response %d bytes", rec.Name, rec.ResponseBytes, len(rec.Response))
		}
	}
}

// rawMap posts one /map request without test-fatal error handling, so
// it is safe to call from concurrent goroutines.
func rawMap(h http.Handler, ctx context.Context, body []byte) (int, MapResponse) {
	r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(body))
	if ctx != nil {
		r = r.WithContext(ctx)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	var resp MapResponse
	_ = json.Unmarshal(w.Body.Bytes(), &resp)
	return w.Code, resp
}

func TestMapResultCacheTiers(t *testing.T) {
	dir := t.TempDir()
	req := MapRequest{BLIF: blifOf(t, bench.Comparator(8)), Library: "44-3"}

	// Baseline: caching disabled entirely.
	off := New(Config{Concurrency: 2, ResultCacheBytes: -1})
	code, r0, body := post(t, off.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cache-off request = %d: %s", code, body)
	}
	if r0.ResultCache != "" || r0.ResultSHA != "" {
		t.Errorf("cache-off response carries cache fields: %q %q", r0.ResultCache, r0.ResultSHA)
	}
	if r0.SubjectSHA == "" {
		t.Error("cache-off response has no subject digest")
	}

	// Cold cache-on server: miss, compute, publish to memory and disk.
	s1 := New(Config{Concurrency: 2, Store: openStore(t, dir)})
	code, r1, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cold request = %d: %s", code, body)
	}
	if r1.ResultCache != "miss" {
		t.Fatalf("cold result_cache = %q, want miss", r1.ResultCache)
	}
	if r1.ResultSHA == "" || r1.SubjectSHA == "" {
		t.Fatal("cold response missing result/subject digests")
	}
	if r1.Netlist != r0.Netlist {
		t.Error("cache-on netlist differs from cache-off netlist")
	}
	if r1.SubjectSHA != r0.SubjectSHA {
		t.Error("subject digest differs between servers for the same circuit")
	}

	// Warm repeat: in-memory hit, identical payload, and — the point of
	// the cache — zero additional matcher work.
	patterns := s1.Stats().PatternsTried
	code, r2, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, body)
	}
	if r2.ResultCache != "hit-mem" {
		t.Fatalf("warm result_cache = %q, want hit-mem", r2.ResultCache)
	}
	if r2.Netlist != r1.Netlist || r2.ResultSHA != r1.ResultSHA {
		t.Error("warm response differs from cold response")
	}
	if !r2.CacheHit {
		t.Error("warm response not marked cache_hit")
	}
	if got := s1.Stats().PatternsTried; got != patterns {
		t.Errorf("warm hit did matcher work: patterns %d -> %d", patterns, got)
	}

	// Warm restart: a fresh process on the same store directory serves
	// from disk without any label-phase work at all.
	s2 := New(Config{Concurrency: 2, Store: openStore(t, dir)})
	code, r3, body := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("restart request = %d: %s", code, body)
	}
	if r3.ResultCache != "hit-disk" {
		t.Fatalf("restart result_cache = %q, want hit-disk", r3.ResultCache)
	}
	if r3.Netlist != r1.Netlist || r3.ResultSHA != r1.ResultSHA {
		t.Error("disk-served response differs from the recorded run")
	}
	if got := s2.Stats().PatternsTried; got != 0 {
		t.Errorf("disk hit did matcher work: %d patterns tried", got)
	}
	// The disk hit also warms the restarted process's memory tier.
	code, r4, _ := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK || r4.ResultCache != "hit-mem" {
		t.Fatalf("post-restart repeat = %d %q, want 200 hit-mem", code, r4.ResultCache)
	}

	// Options are part of the key: flipping one forces a fresh run.
	alt := req
	alt.Delay = "unit"
	code, r5, body := post(t, s2.Handler(), nil, alt)
	if code != http.StatusOK {
		t.Fatalf("alt-options request = %d: %s", code, body)
	}
	if r5.ResultCache != "miss" {
		t.Errorf("alt-options result_cache = %q, want miss", r5.ResultCache)
	}
	// (No assertion on r5.ResultSHA vs r1's: the digest addresses the
	// result's content, and on this circuit unit and intrinsic delay
	// happen to pick the identical netlist.)

	// lut mode is not cacheable and takes the legacy path untouched.
	lut := MapRequest{BLIF: req.BLIF, Mode: "lut", K: 4}
	code, r6, body := post(t, s2.Handler(), nil, lut)
	if code != http.StatusOK {
		t.Fatalf("lut request = %d: %s", code, body)
	}
	if r6.ResultCache != "" {
		t.Errorf("lut response carries result_cache %q", r6.ResultCache)
	}

	// /stats and /metrics expose the tiered counters, and the wide
	// event log attributes each request's cache path.
	snap := s2.Stats()
	if snap.ResultCache == nil {
		t.Fatal("stats snapshot has no result_cache block")
	}
	if snap.ResultCache.DiskHits != 1 || snap.ResultCache.MemHits != 1 {
		t.Errorf("restart server hits = mem %d disk %d, want 1/1",
			snap.ResultCache.MemHits, snap.ResultCache.DiskHits)
	}
	if snap.ResultCache.Entries < 1 || snap.ResultCache.Bytes <= 0 {
		t.Errorf("memory tier reports %d entries / %d bytes", snap.ResultCache.Entries, snap.ResultCache.Bytes)
	}
	mr := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mw := httptest.NewRecorder()
	s2.Handler().ServeHTTP(mw, mr)
	for _, want := range []string{
		`mapd_result_cache_hits_total{tier="mem"} 1`,
		`mapd_result_cache_hits_total{tier="disk"} 1`,
		"mapd_result_cache_misses_total",
		"mapd_result_cache_bytes",
	} {
		if !strings.Contains(mw.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	er := httptest.NewRequest(http.MethodGet, "/debug/events?limit=20", nil)
	ew := httptest.NewRecorder()
	s2.Handler().ServeHTTP(ew, er)
	for _, want := range []string{`"result_cache":"hit-disk"`, `"result_cache":"miss"`, `"subject_sha":"` + r1.SubjectSHA} {
		if !strings.Contains(ew.Body.String(), want) {
			t.Errorf("/debug/events missing %q", want)
		}
	}
}

func TestMapCoalescingSingleFlight(t *testing.T) {
	// A deliberately slow request (structural memo off) so every
	// concurrent copy arrives while the leader is still mapping.
	memo := false
	req := MapRequest{BLIF: blifOf(t, bench.ArrayMultiplier(24)), Library: "lib2", Memo: &memo}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}

	s := New(Config{Concurrency: 2})
	const n = 8
	codes := make([]int, n)
	resps := make([]MapResponse, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			codes[i], resps[i] = rawMap(s.Handler(), nil, body)
		}(i)
	}
	close(start)
	wg.Wait()

	var missIdx = -1
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d = %d", i, codes[i])
		}
		if resps[i].Netlist != resps[0].Netlist || resps[i].ResultSHA != resps[0].ResultSHA {
			t.Fatalf("request %d response differs from request 0", i)
		}
		if resps[i].ResultCache == "miss" {
			if missIdx >= 0 {
				t.Fatalf("two miss-labeled responses: %d and %d", missIdx, i)
			}
			missIdx = i
		}
	}
	if missIdx < 0 {
		t.Fatal("no response was labeled miss")
	}

	// The counters prove a single engine run: one miss, every other
	// request either coalesced onto it or (arriving after it finished)
	// hit the freshly populated memory tier — and the process-wide
	// matcher work equals exactly one run's.
	snap := s.Stats()
	rc := snap.ResultCache
	if rc == nil {
		t.Fatal("no result_cache stats")
	}
	if rc.Misses != 1 {
		t.Fatalf("misses = %d, want exactly 1 engine run", rc.Misses)
	}
	if rc.Coalesced+rc.MemHits != n-1 {
		t.Errorf("coalesced %d + mem hits %d != %d", rc.Coalesced, rc.MemHits, n-1)
	}
	if snap.PatternsTried != uint64(resps[missIdx].PatternsTried) {
		t.Errorf("process tried %d patterns, single run tried %d — extra engine work happened",
			snap.PatternsTried, resps[missIdx].PatternsTried)
	}
}

func TestCoalescingLeaderCancelDoesNotPoisonFollowers(t *testing.T) {
	memo := false
	req := MapRequest{BLIF: blifOf(t, bench.ArrayMultiplier(32)), Library: "lib2", Memo: &memo}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 2})

	// Leader starts under a cancellable context...
	leaderCtx, cancel := context.WithCancel(context.Background())
	leaderCode := make(chan int, 1)
	go func() {
		code, _ := rawMap(s.Handler(), leaderCtx, body)
		leaderCode <- code
	}()
	// ...and once it holds the admission slot, followers pile on.
	deadline := time.Now().Add(10 * time.Second)
	for s.Stats().Queue.Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("leader never started running")
		}
		time.Sleep(time.Millisecond)
	}
	const n = 4
	codes := make([]int, n)
	resps := make([]MapResponse, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], resps[i] = rawMap(s.Handler(), nil, body)
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let followers reach the flight
	cancel()

	wg.Wait()
	// The canceled leader settles as 499 (or 200 when the run beat the
	// cancel); its failure must not propagate to the followers, whose
	// own contexts are intact — one re-elects and finishes the mapping.
	if code := <-leaderCode; code != statusClientClosedRequest && code != http.StatusOK {
		t.Errorf("leader status = %d, want 499 or 200", code)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("follower %d = %d, poisoned by leader cancel", i, codes[i])
		}
		if resps[i].Netlist == "" || resps[i].Netlist != resps[0].Netlist || resps[i].ResultSHA != resps[0].ResultSHA {
			t.Fatalf("follower %d response differs", i)
		}
	}
}

func TestJobItemsUseResultCache(t *testing.T) {
	s := New(Config{Concurrency: 2})

	// Pre-warm with a sync request, then submit a batch containing the
	// same circuit twice plus a fresh one.
	warm := MapRequest{BLIF: blifOf(t, bench.Comparator(8)), Library: "lib2"}
	if code, _, body := post(t, s.Handler(), nil, warm); code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, body)
	}
	items := []JobItemRequest{
		{Name: "warmed", BLIF: warm.BLIF},
		{Name: "fresh", BLIF: blifOf(t, bench.Comparator(10))},
		{Name: "warmed-again", BLIF: warm.BLIF},
	}
	code, acc, body := postJob(t, s.Handler(), JobRequest{Items: items, Library: "lib2"})
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if st, ok := waitJobTerminal(t, s.Handler(), acc.JobID, time.Minute); !ok || st.State != "done" {
		t.Fatalf("job state = %+v", st)
	}

	r := httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	var recs []JobItemRecord
	for _, line := range strings.Split(strings.TrimSpace(w.Body.String()), "\n") {
		var rec JobItemRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	byName := map[string]JobItemRecord{}
	for _, rec := range recs {
		if rec.Status != http.StatusOK || rec.Response == nil {
			t.Fatalf("record %q = %d", rec.Name, rec.Status)
		}
		if rec.ResponseBytes <= 0 {
			t.Errorf("record %q has response_bytes %d, want > 0", rec.Name, rec.ResponseBytes)
		}
		byName[rec.Name] = rec
	}
	// Both copies of the warmed circuit come from the cache, and the
	// netlists match the sync run exactly; the fresh circuit misses.
	for _, name := range []string{"warmed", "warmed-again"} {
		if got := itemResponse(t, byName[name]).ResultCache; got != "hit-mem" {
			t.Errorf("%s result_cache = %q, want hit-mem", name, got)
		}
	}
	if got := itemResponse(t, byName["fresh"]).ResultCache; got != "miss" {
		t.Errorf("fresh result_cache = %q, want miss", got)
	}
	if itemResponse(t, byName["warmed"]).Netlist != itemResponse(t, byName["warmed-again"]).Netlist {
		t.Error("cached item netlists differ")
	}
	snap := s.Stats()
	if snap.ResultCache == nil || snap.ResultCache.MemHits < 2 {
		t.Fatalf("result cache stats = %+v, want >= 2 mem hits", snap.ResultCache)
	}
}

// TestResultKindRotatesStaleResults checks that a store filled by an
// older key format is never served. RandomDAG(5, 20, 7) is a network
// whose tree-mode lib2 netlist changed when exact matches stopped
// covering output-driving nodes (its tree cover's area was 31088
// before, 28768 after), so an entry left under the mapres1 key would
// be a stale cover; it must miss and recompute. A store filled
// under the current key serves the current netlist from disk.
func TestResultKindRotatesStaleResults(t *testing.T) {
	req := MapRequest{BLIF: blifOf(t, bench.RandomDAG(5, 20, 7)), Library: "lib2", Mode: "tree"}
	off := New(Config{Concurrency: 1, ResultCacheBytes: -1})
	code, want, body := post(t, off.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cache-off request = %d: %s", code, body)
	}

	// A store written under the old key: the same request's entry,
	// with the pre-fix area and a netlist that is not the current one.
	oldDir := t.TempDir()
	st := openStore(t, oldDir)
	libKey, err := libraryCacheKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	oldKey := store.KeyOf(append([]string{"mapres1", want.SubjectSHA, libKey}, optionParts(&req, "tree")...)...)
	stale := want
	stale.Area, stale.Netlist = 31088, "# stale tree cover\n"
	payload, _, err := encodeResultPayload(&stale)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("mapres1", oldKey, payload, 1, map[string]string{"library": want.Library}); err != nil {
		t.Fatal(err)
	}
	s := New(Config{Concurrency: 1, Store: st})
	code, got, body := post(t, s.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("request against the old-key store = %d: %s", code, body)
	}
	if got.ResultCache != resultMiss || got.Netlist != want.Netlist || got.Area != want.Area {
		t.Fatalf("old-key store served %s (area %g), want a miss recomputing area %g", got.ResultCache, got.Area, want.Area)
	}

	// A store written under the current key serves it back from disk.
	newDir := t.TempDir()
	if code, r, body := post(t, New(Config{Concurrency: 1, Store: openStore(t, newDir)}).Handler(), nil, req); code != http.StatusOK || r.ResultCache != resultMiss {
		t.Fatalf("cold request = %d %q: %s", code, r.ResultCache, body)
	}
	code, got, body = post(t, New(Config{Concurrency: 1, Store: openStore(t, newDir)}).Handler(), nil, req)
	if code != http.StatusOK || got.ResultCache != resultHitDisk {
		t.Fatalf("restart request = %d %q, want 200 %s: %s", code, got.ResultCache, resultHitDisk, body)
	}
	if got.Netlist != want.Netlist || got.Area != want.Area {
		t.Errorf("disk hit serves area %g, want %g", got.Area, want.Area)
	}
}

// hitPathCorpus is the circuit mix loadgen draws from, small
// comparators through C6288.
func hitPathCorpus(t *testing.T) []MapRequest {
	t.Helper()
	var reqs []MapRequest
	for _, nw := range []*network.Network{
		bench.Comparator(16), bench.RippleAdder(16), bench.ParityTree(32), bench.MuxTree(5),
		bench.ALU(8), bench.ArrayMultiplier(8), bench.C432(), bench.C880(), bench.C2670(), bench.C6288(),
	} {
		text := blifOf(t, nw)
		for _, lib := range []string{"lib2", "44-1", "44-3"} {
			reqs = append(reqs, MapRequest{BLIF: text, Library: lib})
		}
	}
	return reqs
}

// TestResultCacheHitPath is the result cache's gate: a hit does no
// engine work and costs little, whatever the engine costs. For every
// request of the corpus, on a server with a store:
//   - the first serving is a miss and runs the engine;
//   - a verbatim repeat (raw lookaside), a repeat with a comment
//     prepended (digest-keyed lookup after ingest) and, on a restarted
//     server, a disk-tier serving each report a hit tier and add no
//     pattern plans to the server's work counters, and carry no memo
//     counts;
//   - so does each /jobs item that repeats a corpus request, verbatim
//     or commented, on the same server and on another restarted one.
//
// Then it bounds what a hit allocates, on the largest entry, through
// the handler: a verbatim hit at most hitAllocsRaw allocations, a
// digest-keyed hit at most hitAllocsRaw more than ingesting its BLIF.
func TestResultCacheHitPath(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the loadgen corpus on three libraries")
	}
	dir := t.TempDir()
	s := New(Config{Concurrency: 1, Store: openStore(t, dir)})
	commented := func(req MapRequest) MapRequest {
		req.BLIF = "# a repeat with new bytes and the same subject graph\n" + req.BLIF
		return req
	}
	serve := func(s *Server, name string, req MapRequest, tier string) MapResponse {
		t.Helper()
		before := s.Stats().PatternsTried
		code, resp, body := post(t, s.Handler(), nil, req)
		if code != http.StatusOK {
			t.Fatalf("%s: map = %d: %s", name, code, body)
		}
		if resp.ResultCache != tier {
			t.Errorf("%s: result_cache %q, want %q", name, resp.ResultCache, tier)
		}
		work := s.Stats().PatternsTried - before
		switch {
		case tier == resultMiss && work == 0:
			t.Errorf("%s: a miss added no pattern plans to the work counters", name)
		case tier != resultMiss && work != 0:
			t.Errorf("%s: a %s serving added %d pattern plans to the work counters; the engine ran", name, tier, work)
		case tier != resultMiss && (resp.MemoHits != 0 || resp.MemoMisses != 0):
			t.Errorf("%s: a %s serving reported %d memo hits, %d misses", name, tier, resp.MemoHits, resp.MemoMisses)
		}
		return resp
	}
	// serveJob submits one batch per library, each corpus request's BLIF
	// verbatim and then with a comment prepended, and holds every item to
	// the same contract as a /map hit, in the tiers given for the two
	// copies.
	missSHA := map[string]string{} // by library and BLIF
	serveJob := func(s *Server, name string, reqs []MapRequest, tiers [2]string) {
		t.Helper()
		for _, lib := range []string{"lib2", "44-1", "44-3"} {
			var items []JobItemRequest
			var wantSHA []string
			for _, req := range reqs {
				if req.Library == lib {
					items = append(items, JobItemRequest{BLIF: req.BLIF}, JobItemRequest{BLIF: commented(req).BLIF})
					wantSHA = append(wantSHA, missSHA[lib+req.BLIF], missSHA[lib+req.BLIF])
				}
			}
			before := s.Stats().PatternsTried
			for i, rec := range runJob(t, s, JobRequest{Items: items, Library: lib}) {
				item, tier := itemResponse(t, rec), tiers[i%2]
				switch {
				case rec.Status != http.StatusOK:
					t.Fatalf("%s %s item %d: status %d: %s", name, lib, i, rec.Status, rec.Error)
				case item.ResultCache != tier:
					t.Errorf("%s %s item %d: result_cache %q, want %q", name, lib, i, item.ResultCache, tier)
				case item.MemoHits != 0 || item.MemoMisses != 0:
					t.Errorf("%s %s item %d: a %s serving reported %d memo hits, %d misses", name, lib, i, tier, item.MemoHits, item.MemoMisses)
				case item.ResultSHA != wantSHA[i]:
					t.Errorf("%s %s item %d: a hit served another result than the miss", name, lib, i)
				}
			}
			if work := s.Stats().PatternsTried - before; work != 0 {
				t.Errorf("%s %s: cache-served job items added %d pattern plans to the work counters; the engine ran", name, lib, work)
			}
		}
	}
	reqs := hitPathCorpus(t)
	for i, req := range reqs {
		name := fmt.Sprintf("request %d (%s)", i, req.Library)
		miss := serve(s, name+" first serving", req, resultMiss)
		missSHA[req.Library+req.BLIF] = miss.ResultSHA
		for _, hit := range []MapResponse{
			serve(s, name+" verbatim repeat", req, resultHitMem),
			serve(s, name+" commented repeat", commented(req), resultHitMem),
		} {
			if hit.ResultSHA != miss.ResultSHA || hit.Netlist != miss.Netlist {
				t.Errorf("%s: a hit served another result than the miss", name)
			}
		}
	}
	serveJob(s, "job", reqs, [2]string{resultHitMem, resultHitMem})
	restarted := New(Config{Concurrency: 1, Store: openStore(t, dir)})
	for i, req := range reqs {
		serve(restarted, fmt.Sprintf("request %d (%s) after restart", i, req.Library), req, resultHitDisk)
	}
	// A third process serves each circuit's verbatim item from the disk
	// tier and its commented item from the memory tier that warmed.
	jobRestarted := New(Config{Concurrency: 1, Store: openStore(t, dir)})
	serveJob(jobRestarted, "job after restart", reqs, [2]string{resultHitDisk, resultHitMem})

	// Allocation bound on the largest entry (C6288 × 44-3), served warm.
	// Each commented body carries a comment of its own, so every one is
	// a digest-keyed hit rather than a lookaside hit on an alias.
	big := reqs[len(reqs)-1]
	const runs = 10
	allocsOf := func(bodyOf func(i int) MapRequest) float64 {
		bodies := make([][]byte, runs+1) // AllocsPerRun adds a warm-up call
		for i := range bodies {
			var err error
			if bodies[i], err = json.Marshal(bodyOf(i)); err != nil {
				t.Fatal(err)
			}
		}
		h, i := s.Handler(), 0
		return testing.AllocsPerRun(runs, func() {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(bodies[i])))
			i++
			if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), `"result_cache":"hit-mem"`) {
				t.Fatalf("warm serving = %d, not a memory hit: %.200s", w.Code, w.Body.String())
			}
		})
	}
	raw := allocsOf(func(int) MapRequest { return big })
	digest := allocsOf(func(i int) MapRequest {
		req := big
		req.BLIF = fmt.Sprintf("# repeat %d\n", i) + req.BLIF
		return req
	})
	var ph reqPhases
	ingestAllocs := testing.AllocsPerRun(3, func() {
		if _, err := ingest(&big, &ph); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocations per hit: verbatim %.0f, digest-keyed %.0f (ingest alone %.0f)", raw, digest, ingestAllocs)
	if raw > hitAllocsRaw {
		t.Errorf("a verbatim hit allocates %.0f times, want <= %d", raw, hitAllocsRaw)
	}
	if digest > ingestAllocs+hitAllocsRaw {
		t.Errorf("a digest-keyed hit allocates %.0f times, want <= ingest's %.0f + %d", digest, ingestAllocs, hitAllocsRaw)
	}
}

// hitAllocsRaw bounds one hit's allocations through the handler beyond
// ingest: request decode, lookaside or digest probe, splice, response
// write and the wide event. A C6288 hit measured 61 allocations
// verbatim and 73 past ingest digest-keyed, with no spread across runs
// (65 and 81 under -race); a hit that re-ran the engine measured about
// 920 more.
const hitAllocsRaw = 150
