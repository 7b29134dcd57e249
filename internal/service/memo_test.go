package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"dagcover/internal/bench"
)

// scrapeOnly fetches /metrics without serving a mapping first.
func scrapeOnly(t *testing.T, s *Server) map[string]float64 {
	t.Helper()
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics = %d", w.Code)
	}
	return parseExposition(t, w.Body.String())
}

// Concurrent same-library requests each map with their own memo
// tables: every response carries the cold run's netlist and exactly its
// memo counts, however the requests interleave, and the /metrics and
// /stats memo counters are their sums. Run under -race in CI, this is
// also the data-race gate for pooled matchers at the service layer.
func TestConcurrentRequestsMemoDeterministic(t *testing.T) {
	// Result caching off, so every request runs the engine.
	s := New(Config{Concurrency: 4, ResultCacheBytes: -1})
	nw := bench.Comparator(10)
	req := MapRequest{BLIF: blifOf(t, nw), Library: "44-1"}

	code, cold, body := post(t, s.Handler(), nil, req)
	if code != http.StatusOK {
		t.Fatalf("cold map = %d: %s", code, body)
	}
	if cold.MemoMisses == 0 || cold.MemoHits == 0 {
		t.Fatalf("cold request reported %d hits, %d misses; want both nonzero", cold.MemoHits, cold.MemoMisses)
	}

	// A memo-off request must produce the identical netlist.
	code, off, body := post(t, s.Handler(), nil, MapRequest{
		BLIF: req.BLIF, Library: req.Library, Memo: memoOff,
	})
	if code != http.StatusOK {
		t.Fatalf("memo-off map = %d: %s", code, body)
	}
	if off.Netlist != cold.Netlist {
		t.Fatal("memo-off netlist differs from the memoized one")
	}
	if off.MemoHits != 0 || off.MemoMisses != 0 {
		t.Errorf("memo-off request consulted a table: %d hits, %d misses", off.MemoHits, off.MemoMisses)
	}

	const workers, perWorker = 6, 3
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < perWorker; j++ {
				code, resp, body := post(t, s.Handler(), nil, req)
				if code != http.StatusOK {
					t.Errorf("worker %d map = %d: %s", i, code, body)
					return
				}
				if resp.Netlist != cold.Netlist {
					t.Errorf("worker %d: netlist differs from cold run", i)
				}
				if resp.MemoHits != cold.MemoHits || resp.MemoMisses != cold.MemoMisses {
					t.Errorf("worker %d: %d hits, %d misses; the cold run %d, %d",
						i, resp.MemoHits, resp.MemoMisses, cold.MemoHits, cold.MemoMisses)
				}
			}
		}(i)
	}
	wg.Wait()

	runs := float64(1 + workers*perWorker)
	scraped := scrapeOnly(t, s)
	if got, want := scraped["mapd_memo_hits_total"], runs*float64(cold.MemoHits); got != want {
		t.Errorf("mapd_memo_hits_total = %v, want %v", got, want)
	}
	if got, want := scraped["mapd_memo_misses_total"], runs*float64(cold.MemoMisses); got != want {
		t.Errorf("mapd_memo_misses_total = %v, want %v", got, want)
	}

	// /stats reports the same sums and no table-wide fields.
	r := httptest.NewRequest(http.MethodGet, "/stats", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/stats = %d", w.Code)
	}
	var doc struct {
		Memo  map[string]float64 `json:"memo"`
		Cache struct {
			Entries []map[string]any `json:"entries"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &doc); err != nil {
		t.Fatalf("bad /stats JSON: %v", err)
	}
	want := map[string]float64{"hits": runs * float64(cold.MemoHits), "misses": runs * float64(cold.MemoMisses)}
	if len(doc.Memo) != len(want) || doc.Memo["hits"] != want["hits"] || doc.Memo["misses"] != want["misses"] {
		t.Errorf("/stats memo = %v, want %v", doc.Memo, want)
	}
	for _, e := range doc.Cache.Entries {
		if _, ok := e["memo_entries"]; ok {
			t.Errorf("/stats cache entry still reports memo_entries: %v", e)
		}
	}
}

// result_sha is a pure function of the request. Server A maps another
// circuit first and B maps only the request; both must publish the
// same canonical payload, in the response's result_sha and in the disk
// object. The serving
// that ran the engine reports its memo counts; a cached serving of the
// same result omits them.
func TestResultSHAIndependentOfServerHistory(t *testing.T) {
	warmup := MapRequest{BLIF: blifOf(t, bench.RandomDAG(32, 800, 1)), Library: "44-3"}
	req := MapRequest{BLIF: blifOf(t, bench.RandomDAG(32, 800, 2)), Library: "44-3"}
	libKey, err := libraryCacheKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	servers := []struct {
		name   string
		warm   bool
		sha    string
		object []byte
	}{
		{name: "A (warmed by another circuit)", warm: true},
		{name: "B (fresh)"},
	}
	for i := range servers {
		sv := &servers[i]
		st := openStore(t, t.TempDir())
		s := New(Config{Concurrency: 1, Store: st})
		if sv.warm {
			if code, _, body := post(t, s.Handler(), nil, warmup); code != http.StatusOK {
				t.Fatalf("%s: warm-up map = %d: %s", sv.name, code, body)
			}
		}
		code, resp, body := post(t, s.Handler(), nil, req)
		if code != http.StatusOK {
			t.Fatalf("%s: map = %d: %s", sv.name, code, body)
		}
		if resp.ResultCache != resultMiss || resp.MemoHits+resp.MemoMisses == 0 {
			t.Fatalf("%s: result_cache %q with %d memo hits, %d misses; want a miss that reports its memo counts",
				sv.name, resp.ResultCache, resp.MemoHits, resp.MemoMisses)
		}
		e, ok := st.Get(resultKind, resultKey(resp.SubjectSHA, libKey, req.modeName(), &req))
		if !ok {
			t.Fatalf("%s: no disk object for the result", sv.name)
		}
		if e.SHA != resp.ResultSHA {
			t.Errorf("%s: disk object SHA %s, response result_sha %s", sv.name, e.SHA, resp.ResultSHA)
		}
		sv.sha, sv.object = resp.ResultSHA, e.Data

		code, hit, body := post(t, s.Handler(), nil, req)
		if code != http.StatusOK || hit.ResultCache != resultHitMem {
			t.Fatalf("%s: repeat = %d %q: %s", sv.name, code, hit.ResultCache, body)
		}
		if hit.ResultSHA != resp.ResultSHA || hit.Netlist != resp.Netlist {
			t.Errorf("%s: cached serving differs from the computed one", sv.name)
		}
		if hit.MemoHits != 0 || hit.MemoMisses != 0 {
			t.Errorf("%s: cached serving reports %d memo hits, %d misses; want them omitted",
				sv.name, hit.MemoHits, hit.MemoMisses)
		}
	}
	for _, sv := range servers[1:] {
		if sv.sha != servers[0].sha {
			t.Errorf("result_sha: %s %s, %s %s", servers[0].name, servers[0].sha, sv.name, sv.sha)
		}
		if !bytes.Equal(sv.object, servers[0].object) {
			t.Errorf("disk objects of %s and %s differ", servers[0].name, sv.name)
		}
	}
}
