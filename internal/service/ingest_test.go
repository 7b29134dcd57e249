package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dagcover"
	"dagcover/internal/bench"
)

// astResult is what the AST path — dagcover.Map on
// Input{Network: ParseBLIF(blif)} — makes of one input in one mode: the
// fields a /map response must reproduce, or the error text its 400
// must carry.
type astResult struct {
	netlist, subjectSHA, circuit string
	err                          string
}

// lib2Compiled is a lib2 compilation shared by the AST-path references.
var lib2Compiled = func() *dagcover.CompiledLibrary {
	cl, err := dagcover.CompileLibrary(dagcover.Lib2())
	if err != nil {
		panic(err)
	}
	return cl
}()

// astPath maps blif the way the service did before it streamed its
// input: parse the AST, then let Map decompose the network. mode is a
// request mode (dag, tree or lut) with the request defaults (lib2,
// intrinsic delay, standard matches, K = 4).
func astPath(blif, mode string) astResult {
	nw, err := dagcover.ParseBLIF(strings.NewReader(blif))
	if err != nil {
		return astResult{err: err.Error()}
	}
	opt := dagcover.MapOptions{Library: lib2Compiled}
	switch mode {
	case "tree":
		opt.Mode = dagcover.ModeTree
	case "lut":
		opt = dagcover.MapOptions{Mode: dagcover.ModeLUT, K: 4}
	}
	res, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw}, opt)
	if err != nil {
		return astResult{err: err.Error()}
	}
	var buf bytes.Buffer
	if mode == "lut" {
		err = dagcover.WriteBLIF(&buf, res.Network)
	} else {
		err = res.Netlist.WriteBLIF(&buf)
	}
	if err != nil {
		return astResult{err: err.Error()}
	}
	out := astResult{netlist: buf.String(), circuit: nw.Name}
	if mode != "lut" {
		out.subjectSHA = res.SubjectSHA
	}
	return out
}

// ingestCase is one input of the ingest equivalence table.
type ingestCase struct{ name, blif string }

// Inputs the streaming reader hands to the AST reader: a latch, a
// mapped .gate (an error without a gate library, on both readers) and
// a forward reference.
var (
	latchBLIF      = ".model seq\n.inputs a b\n.outputs o\n.latch n q 0\n.names a q n\n11 1\n.names n b o\n10 1\n.end\n"
	gateBLIF       = ".model gated\n.inputs a b\n.outputs o\n.gate nand2 a=a b=b O=o\n.end\n"
	forwardRefBLIF = ".model fwd\n.inputs a b c\n.outputs o\n.names t c o\n11 1\n.names a b t\n10 1\n.end\n"
)

// dfsBLIF declares t before u although the AST reader visits u first,
// as a DFS-ordered writer would; ingest reorders it and streams it.
const dfsBLIF = ".model dfs\n.inputs a b c d\n.outputs y z\n.names c d t\n11 1\n.names a b u\n01 1\n" +
	".names t u y\n1- 1\n-1 1\n.names a t z\n11 1\n.end\n"

// ingestCases is the equivalence table: the ten ISCAS circuits (C499,
// C1355 and C1908 are written in an order the streaming reader would
// number differently from the AST reader), RandomDAG at 300 and 3000 gates
// with and without a leading comment, a DFS-ordered model, and the
// three AST-only inputs.
func ingestCases(t *testing.T) []ingestCase {
	t.Helper()
	var cases []ingestCase
	for _, c := range bench.FullSuite() {
		cases = append(cases, ingestCase{c.Name, blifOf(t, c.Network)})
	}
	for _, n := range []int{300, 3000} {
		text := blifOf(t, bench.RandomDAG(64, n, 7))
		cases = append(cases,
			ingestCase{fmt.Sprintf("rnd%d", n), text},
			ingestCase{fmt.Sprintf("rnd%d-comment", n), "# resubmitted\n" + text})
	}
	return append(cases,
		ingestCase{"dfs", dfsBLIF},
		ingestCase{"latch", latchBLIF},
		ingestCase{"gate", gateBLIF},
		ingestCase{"forward-ref", forwardRefBLIF})
}

// checkAgainstAST compares one service outcome with the AST path's.
func checkAgainstAST(t *testing.T, where string, status int, errText string, resp *MapResponse, want astResult, verify bool) {
	t.Helper()
	if want.err != "" {
		if status != http.StatusBadRequest || errText != want.err {
			t.Errorf("%s: status %d error %q, want 400 %q", where, status, errText, want.err)
		}
		return
	}
	if status != http.StatusOK || resp == nil {
		t.Errorf("%s: status %d (%s), want 200", where, status, errText)
		return
	}
	if resp.Netlist != want.netlist {
		t.Errorf("%s: netlist differs from the AST path's", where)
	}
	if resp.SubjectSHA != want.subjectSHA || resp.Circuit != want.circuit || resp.Verified != verify {
		t.Errorf("%s: subject_sha %q circuit %q verified %v, want %q %q %v",
			where, resp.SubjectSHA, resp.Circuit, resp.Verified, want.subjectSHA, want.circuit, verify)
	}
}

// TestIngestMatchesASTPath is the contract of the one ingest path:
// whether the service streams a BLIF or re-reads it through the AST
// reader, every /map response (result cache on and off) and every
// /jobs item carries the netlist, subject digest, circuit name and
// verified flag the AST path produces, in dag, tree and lut mode, with
// and without verification — and every rejected input the AST path's
// error text. LUT requests bypass the result cache, so one server per
// endpoint covers them, and they skip the inputs FlowMap spends a
// second or more on (ingest does not depend on the mode).
func TestIngestMatchesASTPath(t *testing.T) {
	cases := ingestCases(t)
	cfgs := []Config{{Concurrency: 2}, {Concurrency: 2, ResultCacheBytes: -1}}
	slowLUT := map[string]bool{"C499": true, "C1355": true, "C1908": true, "C3540": true,
		"C5315": true, "C6288": true, "C7552": true, "rnd3000": true, "rnd3000-comment": true}
	for _, mode := range []string{"dag", "tree", "lut"} {
		modeCases, modeCfgs := cases, cfgs
		if mode == "lut" {
			modeCases, modeCfgs = nil, cfgs[:1]
			for _, c := range cases {
				if !slowLUT[c.name] {
					modeCases = append(modeCases, c)
				}
			}
		}
		want := make([]astResult, len(modeCases))
		items := make([]JobItemRequest, len(modeCases))
		for i, c := range modeCases {
			want[i] = astPath(c.blif, mode)
			items[i] = JobItemRequest{Name: c.name, BLIF: c.blif}
		}
		for _, verify := range []bool{false, true} {
			for _, cfg := range modeCfgs {
				// Fresh servers per pass, so every request ingests rather
				// than replaying an earlier pass from the result cache.
				mapSrv, jobSrv := New(cfg), New(cfg)
				tag := fmt.Sprintf("mode=%s verify=%v cache=%v", mode, verify, mapSrv.resultCache != nil)
				for i, c := range modeCases {
					code, resp, body := post(t, mapSrv.Handler(), nil, MapRequest{BLIF: c.blif, Mode: mode, Verify: verify})
					var er errorResponse
					_ = json.Unmarshal([]byte(body), &er)
					checkAgainstAST(t, "/map "+c.name+" "+tag, code, er.Error, &resp, want[i], verify)
				}
				for i, rec := range runJob(t, jobSrv, JobRequest{Items: items, Mode: mode, Verify: verify}) {
					checkAgainstAST(t, "/jobs "+modeCases[i].name+" "+tag, rec.Status, rec.Error, itemResponse(t, rec), want[i], verify)
				}
				mapSrv.Close()
				jobSrv.Close()
			}
		}
	}
}

// pipelineFault is one single-fault request of the pipeline table:
// how it spoils a valid request, and the 400 text /map answers with in
// a gate-library mode. Library faults fail a whole batch, whose records
// carry the same text. LUT mode ignores the library and its options, so
// those requests still map there.
type pipelineFault struct {
	name     string
	spoil    func(*MapRequest)
	err      string
	lutMaps  bool // lut ignores it
	lutOnly  bool // a fault only in lut mode
	modeless bool // the fault is the mode itself
}

var pipelineFaults = []pipelineFault{
	{name: "valid", spoil: func(*MapRequest) {}, lutMaps: true},
	{name: "unknown-library", spoil: func(r *MapRequest) { r.Library = "bogus" },
		err: `unknown library "bogus" (built-ins: lib2, 44-1, 44-3; or upload genlib text)`, lutMaps: true},
	{name: "bad-genlib", spoil: func(r *MapRequest) { r.Genlib = "GATE broken" },
		err: "library compile: genlib: truncated GATE record", lutMaps: true},
	{name: "bad-class", spoil: func(r *MapRequest) { r.Class = "bogus" },
		err: `unknown match class "bogus"`, lutMaps: true},
	{name: "bad-delay", spoil: func(r *MapRequest) { r.Delay = "bogus" },
		err: `unknown delay model "bogus"`, lutMaps: true},
	{name: "unknown-mode", spoil: func(r *MapRequest) { r.Mode = "bogus" },
		err: `unknown mode "bogus" (want dag, tree, or lut)`, modeless: true},
	{name: "lut-supergates", spoil: func(r *MapRequest) { r.Supergates = &SupergateConfig{} },
		err: "supergates apply to gate-library modes (dag, tree), not lut", lutOnly: true},
	{name: "bad-blif", spoil: func(r *MapRequest) { r.BLIF = ".model bad\n.inputs a\n.outputs o\n.names a ghost o\n11 1\n.end\n" },
		err: `blif: line 4: signal "ghost" is never defined`},
}

// TestPipelineEquivalence is the one-pipeline contract: on a server
// with the result cache on, off, and on with an artifact store, in dag,
// tree, lut and an unknown mode, /map and a /jobs item answer a valid
// request with the AST path's netlist and subject digest, and every
// single-fault request with the status and error text the service gave
// before its paths were merged. Among them, a LUT request naming a
// library that does not exist still maps. Responses carry
// result_cache exactly when the cache stages ran: cache on, dag or tree.
func TestPipelineEquivalence(t *testing.T) {
	valid := blifOf(t, bench.Comparator(4))
	ref := map[string]astResult{}
	for _, mode := range []string{"dag", "tree", "lut"} {
		ref[mode] = astPath(valid, mode)
	}
	servers := []struct {
		name string
		cfg  Config
	}{
		{"cache-on", Config{Concurrency: 2}},
		{"cache-off", Config{Concurrency: 2, ResultCacheBytes: -1}},
		{"cache-store", Config{Concurrency: 2, Store: openStore(t, t.TempDir())}},
	}
	for _, sv := range servers {
		s := New(sv.cfg)
		for _, mode := range []string{"dag", "tree", "lut"} {
			for _, f := range pipelineFaults {
				if f.lutOnly && mode != "lut" || f.modeless && mode != "dag" {
					continue
				}
				req := MapRequest{BLIF: valid, Mode: mode}
				f.spoil(&req)
				want := astResult{err: f.err}
				if f.err == "" || mode == "lut" && f.lutMaps {
					want = ref[mode]
				}
				cached := sv.name != "cache-off" && req.Mode != "lut" && !f.modeless
				where := fmt.Sprintf("%s mode=%s %s", sv.name, req.Mode, f.name)

				code, resp, body := post(t, s.Handler(), nil, req)
				var er errorResponse
				_ = json.Unmarshal([]byte(body), &er)
				checkAgainstAST(t, "/map "+where, code, er.Error, &resp, want, false)
				if code == http.StatusOK && (resp.ResultCache != "") != cached {
					t.Errorf("/map %s: result_cache %q, want it present: %v", where, resp.ResultCache, cached)
				}

				rec := runJob(t, s, JobRequest{Items: []JobItemRequest{{BLIF: req.BLIF}}, Mode: req.Mode,
					Library: req.Library, Genlib: req.Genlib, Class: req.Class, Delay: req.Delay, Supergates: req.Supergates})[0]
				item := itemResponse(t, rec)
				checkAgainstAST(t, "/jobs "+where, rec.Status, rec.Error, item, want, false)
				if rec.Status == http.StatusOK && (item.ResultCache != "") != cached {
					t.Errorf("/jobs %s: result_cache %q, want it present: %v", where, item.ResultCache, cached)
				}
			}
		}
		s.Close()
	}
}

// runJob submits a batch, waits for it and returns its NDJSON records.
func runJob(t *testing.T, s *Server, req JobRequest) []JobItemRecord {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	code, body, recs := postJobBody(t, s, raw)
	if code != http.StatusAccepted {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	if len(recs) != len(req.Items) {
		t.Fatalf("job returned %d records for %d items", len(recs), len(req.Items))
	}
	return recs
}

// postJobBody posts a raw /jobs body. When the job is accepted it
// reads the result stream, which ends once the job has settled, and
// returns its NDJSON records.
func postJobBody(t *testing.T, s *Server, raw []byte) (int, string, []JobItemRecord) {
	t.Helper()
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(raw)))
	if w.Code != http.StatusAccepted {
		return w.Code, w.Body.String(), nil
	}
	var acc JobAccepted
	if err := json.Unmarshal(w.Body.Bytes(), &acc); err != nil {
		t.Fatalf("bad 202 body: %v", err)
	}
	rw := httptest.NewRecorder()
	s.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/jobs/"+acc.JobID+"/result", nil))
	var recs []JobItemRecord
	sc := bufio.NewScanner(bytes.NewReader(rw.Body.Bytes()))
	sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
	for sc.Scan() {
		var rec JobItemRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON record: %v", err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != acc.Items {
		t.Fatalf("job streamed %d records for %d items", len(recs), acc.Items)
	}
	return w.Code, w.Body.String(), recs
}

// TestServiceIngestAllocs bounds the service's ingest of a 3000-gate
// RandomDAG at the streaming reader's own budget (TestIngestStreamAllocs):
// 1.25 allocations per declared signal. Falling back to the AST reader,
// or building a Network on the way, would cost several times that.
func TestServiceIngestAllocs(t *testing.T) {
	req := &MapRequest{BLIF: blifOf(t, bench.RandomDAG(64, 3000, 7))}
	signals := strings.Count(req.BLIF, "\n.names ") + 64
	var ph reqPhases
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := ingest(req, &ph); err != nil {
			t.Fatal(err)
		}
	})
	perSignal := allocs / float64(signals)
	if perSignal > 1.25 {
		t.Fatalf("service ingest makes %.0f allocations for %d signals (%.2f per signal), want <= 1.25", allocs, signals, perSignal)
	}
	t.Logf("service ingest: %d signals, %.0f allocs, %.2f allocs/signal", signals, allocs, perSignal)
}

// fuzzModes are the request modes FuzzMapRequest draws from.
var fuzzModes = [...]string{"dag", "tree", "lut"}

// FuzzMapRequest posts arbitrary BLIF inside a JSON /map body on lib2,
// then the same BLIF as a one-item /jobs batch. The low two bits of ctl
// pick the mode, bit 2 gzip-encodes the /map body and bit 3 disables
// the result cache. The service answers 200 or a 4xx, never a panic or
// a 5xx; a 4xx body stays under 1 KiB and, for a non-empty BLIF,
// carries the AST path's error; a 200 carries the AST path's netlist.
// This is the service-level differential between the streaming and the
// AST reader. The job item's record matches the /map outcome: status,
// error text and, on 200, netlist, subject_sha and result_sha.
//
// Bit 5 instead posts the input verbatim as a /jobs body (fuzzJobBody).
//
// Seeds: the FuzzStreamSubject corpus of internal/blif (suite
// circuits, small stream families, reader error cases), read at run
// time, plus the committed testdata/fuzz/FuzzMapRequest inputs: the
// ones streaming hands to the AST reader (.latch, .gate, a forward
// reference) and /jobs bodies (a valid batch, items plus top-level
// blif, a blank item, one item over the batch limit).
func FuzzMapRequest(f *testing.F) {
	dir := filepath.Join("..", "blif", "testdata", "fuzz", "FuzzStreamSubject")
	entries, err := os.ReadDir(dir)
	if err != nil {
		f.Fatal(err)
	}
	for i, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.SplitN(string(data), "\n", 3)
		text, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "string("), ")"))
		if err != nil {
			f.Fatalf("%s: %v", e.Name(), err)
		}
		ctl := byte(i)
		if strings.HasPrefix(e.Name(), "suite-") {
			ctl &^= 2 // dag or tree: FlowMap spends seconds on some suite circuits
		}
		f.Add(text, ctl)
	}
	servers := [2]*Server{
		New(Config{Concurrency: 2, ResultCacheBytes: 4 << 20, MaxBatchItems: 4}),
		New(Config{Concurrency: 2, ResultCacheBytes: -1, MaxBatchItems: 4}),
	}
	f.Cleanup(func() {
		servers[0].Close()
		servers[1].Close()
	})
	f.Fuzz(func(t *testing.T, blif string, ctl byte) {
		if len(blif) > 1<<17 {
			return
		}
		s := servers[ctl>>3&1]
		if ctl&32 != 0 {
			fuzzJobBody(t, s, blif)
			return
		}
		mode := fuzzModes[int(ctl&3)%len(fuzzModes)]
		if mode == "lut" && len(blif) > 4<<10 {
			// FlowMap spends seconds on a few hundred gates; keep the
			// fuzzer's pace on the reader, which is what it targets.
			mode = "dag"
		}
		raw, err := json.Marshal(MapRequest{BLIF: blif, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		// JSON carries only valid UTF-8: compare against what the
		// server decodes, not the raw fuzz bytes.
		var sent MapRequest
		if err := json.Unmarshal(raw, &sent); err != nil {
			t.Fatal(err)
		}
		r := httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(raw))
		if ctl&4 != 0 {
			r = httptest.NewRequest(http.MethodPost, "/map", bytes.NewReader(gzipped(t, raw)))
			r.Header.Set("Content-Encoding", "gzip")
		}
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, r)
		if w.Code >= 500 || (w.Code != http.StatusOK && w.Code < 400) {
			t.Fatalf("status %d: %s\ninput: %.400q", w.Code, w.Body.String(), sent.BLIF)
		}
		if w.Code != http.StatusOK && w.Body.Len() > 1024 {
			t.Fatalf("%d body is %d bytes", w.Code, w.Body.Len())
		}
		var resp MapResponse
		var er errorResponse
		if w.Code == http.StatusOK {
			if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
		} else if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatal(err)
		}

		jobRaw, err := json.Marshal(JobRequest{Items: []JobItemRequest{{BLIF: sent.BLIF}}, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		code, body, recs := postJobBody(t, s, jobRaw)
		if strings.TrimSpace(sent.BLIF) == "" {
			if code != http.StatusBadRequest {
				t.Fatalf("blank /jobs item = %d: %s", code, body)
			}
			return
		}
		if code != http.StatusAccepted {
			t.Fatalf("POST /jobs = %d: %s\ninput: %.400q", code, body, sent.BLIF)
		}
		rec := recs[0]
		if rec.Status != w.Code || rec.Error != er.Error {
			t.Fatalf("/jobs item %d %q, /map %d %q\ninput: %.400q", rec.Status, rec.Error, w.Code, er.Error, sent.BLIF)
		}
		if item := itemResponse(t, rec); w.Code == http.StatusOK && (item.Netlist != resp.Netlist ||
			item.SubjectSHA != resp.SubjectSHA || item.ResultSHA != resp.ResultSHA) {
			t.Fatalf("/jobs item response differs from /map's\ninput: %.400q", sent.BLIF)
		}

		want := astPath(sent.BLIF, mode)
		switch {
		case want.err != "" && (w.Code == http.StatusOK || er.Error != want.err):
			t.Fatalf("service %d %q, AST path error %q\ninput: %.400q", w.Code, er.Error, want.err, sent.BLIF)
		case want.err == "" && w.Code != http.StatusOK:
			t.Fatalf("service %d %q, AST path maps it\ninput: %.400q", w.Code, er.Error, sent.BLIF)
		case want.err == "" && resp.Netlist != want.netlist:
			t.Fatalf("service netlist differs from the AST path's\ninput: %.400q", sent.BLIF)
		}
	})
}

// fuzzJobBody posts a fuzz input verbatim as a /jobs body. The server
// answers 202 or a 4xx under 1 KiB, and settles every item of an
// accepted job as 200, 400 or, past a requested timeout, 504. Bodies
// whose jobs would keep the engine busy for seconds (supergates, LUT
// mode) are skipped; the fuzz servers cap a batch at four items.
func fuzzJobBody(t *testing.T, s *Server, body string) {
	var jr JobRequest
	if json.Unmarshal([]byte(body), &jr) == nil && (jr.Supergates != nil || jr.Mode == "lut") {
		return
	}
	code, resp, recs := postJobBody(t, s, []byte(body))
	if code != http.StatusAccepted && (code < 400 || code >= 500 || len(resp) > 1024) {
		t.Fatalf("POST /jobs = %d (%d bytes): %.400s\nbody: %.400q", code, len(resp), resp, body)
	}
	for _, rec := range recs {
		switch rec.Status {
		case http.StatusOK, http.StatusBadRequest, http.StatusGatewayTimeout:
		default:
			t.Fatalf("job item %d settled %d %q\nbody: %.400q", rec.Index, rec.Status, rec.Error, body)
		}
	}
}
