package service

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagcover"
	"dagcover/internal/bench"
)

// sgStoreReq is the canonical supergate request these tests replay
// against every server: small bounds keep generation fast, and the
// same request must map byte-identically with the store disabled,
// cold, warm, or recovering from corruption.
func sgStoreReq(t *testing.T) MapRequest {
	t.Helper()
	return MapRequest{
		BLIF:       blifOf(t, bench.Comparator(6)),
		Library:    "44-1",
		Delay:      "unit",
		Supergates: &SupergateConfig{MaxInputs: 3, MaxDepth: 2, MaxGates: 64},
	}
}

// openStore opens (or reopens) an artifact store on dir, failing the
// test on error.
func openStore(t *testing.T, dir string) *dagcover.ArtifactStore {
	t.Helper()
	st, err := dagcover.OpenArtifactStore(dir, dagcover.ArtifactStoreOptions{})
	if err != nil {
		t.Fatalf("opening store: %v", err)
	}
	return st
}

func TestMapSupergatesWarmRestartHitsStore(t *testing.T) {
	dir := t.TempDir()
	req := sgStoreReq(t)

	// Baseline: no store at all.
	plain := New(Config{Concurrency: 2})
	code, rp, body := post(t, plain.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("store-disabled request = %d: %s", code, body)
	}
	if rp.SGStoreHit != nil || rp.SGArtifactSHA != "" {
		t.Error("store-disabled response carries store fields")
	}

	// Cold process: miss, generate, publish. These tests exercise the
	// supergate-artifact path specifically, so the whole-result cache —
	// which would satisfy repeats before the library is ever resolved —
	// is disabled (resultcache_test.go covers the cache-on paths).
	s1 := New(Config{Concurrency: 2, Store: openStore(t, dir), ResultCacheBytes: -1})
	code, r1, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cold request = %d: %s", code, body)
	}
	if r1.SGStoreHit == nil || *r1.SGStoreHit {
		t.Fatalf("cold request sg_store_hit = %v, want false", r1.SGStoreHit)
	}
	if r1.SGArtifactSHA == "" {
		t.Fatal("cold request reported no artifact SHA")
	}
	if r1.Netlist != rp.Netlist {
		t.Error("store-enabled netlist differs from store-disabled netlist")
	}

	// Same process, second request: served from the in-memory compiled
	// cache, still reporting the artifact identity.
	code, r1b, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("repeat request = %d: %s", code, body)
	}
	if !r1b.CacheHit {
		t.Error("repeat request missed the compiled cache")
	}
	if r1b.SGArtifactSHA != r1.SGArtifactSHA {
		t.Errorf("repeat request artifact SHA %q != %q", r1b.SGArtifactSHA, r1.SGArtifactSHA)
	}

	// Warm restart: a fresh server and store handle on the same
	// directory skips generation entirely.
	s2 := New(Config{Concurrency: 2, Store: openStore(t, dir), ResultCacheBytes: -1})
	code, r2, body := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("warm request = %d: %s", code, body)
	}
	if r2.SGStoreHit == nil || !*r2.SGStoreHit {
		t.Fatalf("warm request sg_store_hit = %v, want true", r2.SGStoreHit)
	}
	if r2.SGArtifactSHA != r1.SGArtifactSHA {
		t.Errorf("warm artifact SHA %q != cold %q", r2.SGArtifactSHA, r1.SGArtifactSHA)
	}
	if r2.Netlist != r1.Netlist {
		t.Error("warm netlist differs from cold netlist")
	}

	// The warm server's /stats and /metrics expose the store's view.
	snap := s2.Stats()
	if snap.Store == nil {
		t.Fatal("stats snapshot has no store block")
	}
	if snap.Store.Hits < 1 {
		t.Errorf("store hits = %d, want >= 1", snap.Store.Hits)
	}
	if snap.Store.Objects < 1 || snap.Store.Bytes <= 0 {
		t.Errorf("store reports %d objects / %d bytes, want at least one artifact",
			snap.Store.Objects, snap.Store.Bytes)
	}
	if snap.Store.SavedSeconds <= 0 {
		t.Errorf("store saved seconds = %v, want > 0", snap.Store.SavedSeconds)
	}
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s2.Handler().ServeHTTP(w, r)
	for _, want := range []string{"mapd_store_hits_total 1", "mapd_store_misses_total 0", "mapd_store_objects 1"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestMapSupergatesStoreCorruptionRegenerates(t *testing.T) {
	dir := t.TempDir()
	req := sgStoreReq(t)

	s1 := New(Config{Concurrency: 2, Store: openStore(t, dir), ResultCacheBytes: -1})
	code, r1, body := post(t, s1.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cold request = %d: %s", code, body)
	}

	// Flip bytes in the middle of every stored object.
	var corrupted int
	root := filepath.Join(dir, "objects")
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)/2] ^= 0xff
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		corrupted++
		return nil
	})
	if err != nil {
		t.Fatalf("corrupting objects: %v", err)
	}
	if corrupted == 0 {
		t.Fatal("no objects found to corrupt")
	}

	// A fresh process detects the damage, quarantines the object, and
	// regenerates the identical artifact.
	s2 := New(Config{Concurrency: 2, Store: openStore(t, dir), ResultCacheBytes: -1})
	code, r2, body := post(t, s2.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("post-corruption request = %d: %s", code, body)
	}
	if r2.SGStoreHit == nil || *r2.SGStoreHit {
		t.Fatalf("post-corruption sg_store_hit = %v, want false (regenerated)", r2.SGStoreHit)
	}
	if r2.SGArtifactSHA != r1.SGArtifactSHA {
		t.Errorf("regenerated artifact SHA %q != original %q", r2.SGArtifactSHA, r1.SGArtifactSHA)
	}
	if r2.Netlist != r1.Netlist {
		t.Error("post-corruption netlist differs from original")
	}
	snap := s2.Stats()
	if snap.Store == nil || snap.Store.Quarantined < 1 {
		t.Fatalf("store snapshot = %+v, want quarantined >= 1", snap.Store)
	}

	// And the regenerated artifact serves hits again.
	s3 := New(Config{Concurrency: 2, Store: openStore(t, dir), ResultCacheBytes: -1})
	code, r3, body := post(t, s3.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("recovered request = %d: %s", code, body)
	}
	if r3.SGStoreHit == nil || !*r3.SGStoreHit {
		t.Fatalf("recovered sg_store_hit = %v, want true", r3.SGStoreHit)
	}
	if r3.Netlist != r1.Netlist {
		t.Error("recovered netlist differs from original")
	}
}

// result_sha is a function of the request, not of the server's store
// configuration: a supergate request mapped on a storeless server and
// on a store-backed one publishes one result_sha. Only the store-backed
// server reports the artifact fields: on the run that expanded the
// library, and on every cached serving after it, from memory or, after
// a restart, from disk.
func TestSupergateResultSHAIndependentOfStore(t *testing.T) {
	req := MapRequest{
		BLIF:       blifOf(t, bench.Comparator(6)),
		Library:    "44-1",
		Supergates: &SupergateConfig{MaxInputs: 3, MaxDepth: 2, MaxGates: 32},
	}
	serve := func(name string, s *Server, tier string) MapResponse {
		t.Helper()
		code, resp, body := post(t, s.Handler(), nil, req)
		if code != http.StatusOK {
			t.Fatalf("%s: map = %d: %s", name, code, body)
		}
		if resp.ResultCache != tier {
			t.Fatalf("%s: result_cache %q, want %q", name, resp.ResultCache, tier)
		}
		return resp
	}

	plain := New(Config{Concurrency: 1})
	want := serve("storeless miss", plain, resultMiss)
	for _, r := range []MapResponse{want, serve("storeless hit", plain, resultHitMem)} {
		if r.SGStoreHit != nil || r.SGArtifactSHA != "" {
			t.Errorf("storeless server reported store fields: sg_store_hit %v, sg_artifact_sha %q", r.SGStoreHit, r.SGArtifactSHA)
		}
	}

	dir := t.TempDir()
	stored := New(Config{Concurrency: 1, Store: openStore(t, dir)})
	cold := serve("store miss", stored, resultMiss)
	if cold.SGStoreHit == nil || *cold.SGStoreHit || cold.SGArtifactSHA == "" {
		t.Fatalf("store miss: sg_store_hit %v, sg_artifact_sha %q; want false and an artifact", cold.SGStoreHit, cold.SGArtifactSHA)
	}
	restarted := New(Config{Concurrency: 1, Store: openStore(t, dir)})
	for _, r := range []MapResponse{
		cold,
		serve("store memory hit", stored, resultHitMem),
		serve("store disk hit after restart", restarted, resultHitDisk),
	} {
		if r.ResultSHA != want.ResultSHA {
			t.Errorf("%s serving: result_sha %s, the storeless server's %s", r.ResultCache, r.ResultSHA, want.ResultSHA)
		}
		if r.Netlist != want.Netlist {
			t.Errorf("%s serving: netlist differs from the storeless server's", r.ResultCache)
		}
		if r.SGArtifactSHA != cold.SGArtifactSHA {
			t.Errorf("%s serving: sg_artifact_sha %q, the run's %q", r.ResultCache, r.SGArtifactSHA, cold.SGArtifactSHA)
		}
		if r.ResultCache != resultMiss && (r.SGStoreHit == nil || !*r.SGStoreHit) {
			t.Errorf("%s serving: sg_store_hit %v, want true", r.ResultCache, r.SGStoreHit)
		}
	}
}

// TestStoreWriteChargedToRespond: a store-backed miss writes and fsyncs
// its result object inside the request. That time is respond time, so
// the access log's respond_ms covers the store's own store.put span.
func TestStoreWriteChargedToRespond(t *testing.T) {
	tr := dagcover.NewTrace()
	st, err := dagcover.OpenArtifactStore(t.TempDir(), dagcover.ArtifactStoreOptions{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	var logBuf bytes.Buffer
	s := New(Config{Concurrency: 2, Store: st, Logger: slog.New(slog.NewJSONHandler(&logBuf, nil))})
	code, _, body := post(t, s.Handler(), nil, MapRequest{BLIF: blifOf(t, bench.RippleAdder(4)), Library: "44-3"})
	if code != http.StatusOK {
		t.Fatalf("map = %d: %s", code, body)
	}
	var rec struct {
		ResultCache string  `json:"result_cache"`
		RespondMS   float64 `json:"respond_ms"`
	}
	if err := json.Unmarshal(logBuf.Bytes(), &rec); err != nil {
		t.Fatalf("access log is not one JSON record: %v\n%s", err, logBuf.String())
	}
	var putMS float64
	for _, e := range tr.Events() {
		if e.Name == "store.put" {
			putMS += millis(e.Dur)
		}
	}
	if rec.ResultCache != resultMiss || putMS == 0 {
		t.Fatalf("result_cache %q with %v ms of store.put spans, want a miss that wrote its object", rec.ResultCache, putMS)
	}
	if rec.RespondMS < putMS {
		t.Errorf("respond_ms %v < store.put %v ms: the disk-tier write is outside every phase", rec.RespondMS, putMS)
	}
}

// TestSupergateArtifactTravelsWithCompiledEntry alternates two
// uploaded supergate libraries on a store-backed server whose compiled
// cache holds one entry, so the first library stays cached and the
// second is compiled uncached on every request. The result cache is
// off, so every request resolves its library. Each response reports its
// own library's artifact, and a repeat maps to the same netlist bytes.
func TestSupergateArtifactTravelsWithCompiledEntry(t *testing.T) {
	genlibs := make([]string, 2)
	for i := range genlibs {
		lib := dagcover.Lib441()
		lib.Gates[0].Area += float64(i) // a second, distinct library
		var buf bytes.Buffer
		if err := dagcover.WriteLibrary(&buf, lib); err != nil {
			t.Fatal(err)
		}
		genlibs[i] = buf.String()
	}
	sg := &SupergateConfig{MaxInputs: 3, MaxDepth: 2, MaxGates: 32}
	blif := blifOf(t, bench.Comparator(6))
	reqs := []MapRequest{
		{BLIF: blif, Genlib: genlibs[0], Supergates: sg},
		{BLIF: blif, Genlib: genlibs[1], Supergates: sg},
	}
	s := New(Config{Concurrency: 1, CacheEntries: 1, ResultCacheBytes: -1, Store: openStore(t, t.TempDir())})
	first := make([]MapResponse, len(reqs))
	for round := 0; round < 2; round++ {
		for i, req := range reqs {
			code, resp, body := post(t, s.Handler(), nil, req)
			if code != http.StatusOK {
				t.Fatalf("round %d library %d: map = %d: %s", round, i, code, body)
			}
			if resp.SGArtifactSHA == "" {
				t.Fatalf("round %d library %d: no sg_artifact_sha", round, i)
			}
			if wantHit := round > 0 && i == 0; resp.CacheHit != wantHit {
				t.Errorf("round %d library %d: cache_hit %v, want %v", round, i, resp.CacheHit, wantHit)
			}
			if round == 0 {
				first[i] = resp
				continue
			}
			if resp.SGArtifactSHA != first[i].SGArtifactSHA {
				t.Errorf("round %d library %d: sg_artifact_sha %s, first request's %s", round, i, resp.SGArtifactSHA, first[i].SGArtifactSHA)
			}
			if resp.Netlist != first[i].Netlist {
				t.Errorf("round %d library %d: netlist differs from the first request's", round, i)
			}
		}
	}
	if first[0].SGArtifactSHA == first[1].SGArtifactSHA {
		t.Errorf("both libraries report artifact %s", first[0].SGArtifactSHA)
	}
}
