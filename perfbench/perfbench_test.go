package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dagcover"
	"dagcover/internal/service"
)

func TestTail(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	for _, tc := range []struct {
		n       int
		v, pct  float64
		comment string
	}{
		{100, 90, 90, "ten samples beyond the 90th of 100"},
		{1000, 990, 99, ""},
		{11, 1, 100.0 / 11, "the smallest of 11 has exactly 10 beyond"},
		{10, 10, 100, "too few samples: the maximum"},
		{1, 1, 100, ""},
	} {
		v, pct := tail(seq(tc.n))
		if v != tc.v || math.Abs(pct-tc.pct) > 1e-9 {
			t.Errorf("tail(1..%d) = %v at p%v, want %v at p%v (%s)", tc.n, v, pct, tc.v, tc.pct, tc.comment)
		}
	}
	if v, _ := tail(nil); v != 0 {
		t.Errorf("tail(nil) = %v", v)
	}
}

func TestMedian(t *testing.T) {
	inf := math.Inf(1)
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1, inf, inf}, inf},
		{[]float64{1, 2, inf}, 2},
		{nil, 0},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// TestFailureAccounting drives the serve-mixed client against a server
// that sheds, fails and drops connections: each counts in error_rate,
// and failed operations sit beyond every latency in the tail.
func TestFailureAccounting(t *testing.T) {
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req service.MapRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		switch req.BLIF {
		case "shed":
			http.Error(w, "overloaded", http.StatusTooManyRequests)
		case "fail":
			http.Error(w, "boom", http.StatusInternalServerError)
		case "drop":
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
		default:
			fmt.Fprintf(w, `{"circuit":%q,"netlist":"n","result_sha":"s","delay":1,"area":1,"elapsed_ms":0.1}`, req.BLIF)
		}
	}))
	defer fake.Close()

	var ops []serveOp
	kinds := []string{"shed", "fail", "drop"}
	for i := 0; i < 24; i++ {
		blif := fmt.Sprintf("ok%d", i)
		if i%2 == 1 {
			blif = kinds[(i/2)%3]
		}
		// The service answers a verify request whose netlist fails
		// verification with a 500.
		verify := blif == "fail"
		ops = append(ops, serveOp{class: classMiss, caller: i % serveCallers, ref: -1, blif: blif, verify: verify})
	}
	srv := service.New(service.Config{}) // only its Stats are read
	defer srv.Close()
	w := &serveMixed{ops: ops, srv: srv, url: fake.URL + "/map"}
	for c := 0; c < serveCallers; c++ {
		w.clients = append(w.clients, &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}})
	}
	p, err := w.run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := countFailed(p); got != 12 {
		t.Fatalf("failed ops = %d, want 12", got)
	}
	for i, op := range p.ops {
		if op.failed != (i%2 == 1) || (op.failed && !math.IsInf(op.ms, 1)) {
			t.Errorf("op %d (%s): failed=%v ms=%v", i, ops[i].blif, op.failed, op.ms)
		}
	}
	if bad := w.check(p); len(bad) != 12 {
		t.Errorf("check reported %d mismatches, want one per failed op: %q", len(bad), bad)
	}
	got := map[string]float64{}
	for _, m := range endToEnd(p, []float64{1}, 1) {
		got[m.name] = m.value
	}
	if got["error_rate"] != 0.5 {
		t.Errorf("error_rate = %v, want 0.5", got["error_rate"])
	}
	if !math.IsInf(got["latency_tail_ms"], 1) {
		t.Errorf("latency_tail_ms = %v with 12 failed of 24, want +Inf", got["latency_tail_ms"])
	}
	var out bytes.Buffer
	if err := printResult(&out, true, p, endToEnd(p, []float64{1}, 1)); err != nil {
		t.Fatalf("printResult: %v", err)
	}
	var res struct {
		Attempted, Failed int
		Metrics           map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Attempted != 24 || res.Failed != 12 || res.Metrics["latency_tail_ms"].Value != math.MaxFloat64 {
		t.Errorf("result line = %s", out.String())
	}
}

// opListDigest hashes everything a serve-mixed operation sends.
func opListDigest(t *testing.T, ops []serveOp) string {
	h := sha256.New()
	for i := range ops {
		body, err := requestBody(&ops[i])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d %d %x\n", ops[i].class, ops[i].caller, ops[i].ref, sha256.Sum256(body))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestOpListDeterminism(t *testing.T) {
	a, err := serveOpList(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := serveOpList(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := serveOpList(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if opListDigest(t, a) != opListDigest(t, b) {
		t.Error("serve-mixed: the same seed gave different operation lists")
	}
	if opListDigest(t, a) == opListDigest(t, c) {
		t.Error("serve-mixed: different seeds gave the same operation list")
	}
	if fmt.Sprint(paperOrder(7, 30, 3)) != fmt.Sprint(paperOrder(7, 30, 3)) ||
		fmt.Sprint(paperOrder(7, 30, 3)) == fmt.Sprint(paperOrder(8, 30, 3)) {
		t.Error("paper-suite: operation order is not a function of the seed")
	}
}

// TestClassTagging checks what makes each repeat class hit the cache
// it is named for: a hit_raw request is byte-identical to its
// original, a hit_digest request differs in bytes but builds a subject
// graph with the same digest.
func TestClassTagging(t *testing.T) {
	ops, err := serveOpList(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	digest := func(blif string) string {
		nw, err := dagcover.ParseBLIF(strings.NewReader(blif))
		if err != nil {
			t.Fatal(err)
		}
		g, err := dagcover.BuildSubject(nw)
		if err != nil {
			t.Fatal(err)
		}
		return g.Digest()
	}
	counts := map[string]int{}
	for i := range ops {
		o := &ops[i]
		counts[o.class]++
		if o.ref == -1 {
			if o.class != classMiss && o.class != classVerify {
				t.Errorf("op %d: fresh op tagged %s", i, o.class)
			}
			continue
		}
		orig := &ops[o.ref]
		if o.ref >= i || orig.ref != -1 || orig.caller != o.caller {
			t.Errorf("op %d replays op %d, which is not an earlier fresh op of the same caller", i, o.ref)
		}
		body, _ := requestBody(o)
		origBody, _ := requestBody(orig)
		switch o.class {
		case classHitRaw:
			if !bytes.Equal(body, origBody) {
				t.Errorf("op %d hit_raw: request differs from op %d's", i, o.ref)
			}
		case classHitDigest:
			if bytes.Equal(body, origBody) {
				t.Errorf("op %d hit_digest: request is byte-identical to op %d's", i, o.ref)
			}
			if digest(o.blif) != digest(orig.blif) {
				t.Errorf("op %d hit_digest: subject digest differs from op %d's", i, o.ref)
			}
		default:
			t.Errorf("op %d: repeat tagged %s", i, o.class)
		}
	}
	for _, class := range serveClasses {
		if counts[class] == 0 {
			t.Errorf("no %s operations in %v", class, counts)
		}
	}
}

// TestChecks feeds each workload's check a pass with one wrong output.
func TestChecks(t *testing.T) {
	paper := &paperSuite{
		configs: []paperConfig{{circuit: "C17", lib: "lib2"}},
		order:   []int{0, 0},
		golden:  map[string]map[string]string{"C17": {"lib2": "good"}},
	}
	p := &pass{ops: []opResult{{out: "good"}, {out: "bad"}}}
	if bad := paper.check(p); len(bad) != 1 || !strings.Contains(bad[0], "op 1") {
		t.Errorf("paper-suite check = %q", bad)
	}

	stream := &streamScale{
		inputs:   []streamInput{{family: "mult2"}},
		order:    []streamOp{{0, 0}, {0, 1}},
		expected: map[string]map[string]string{"mult2": {"44-1": "a", "44-3": "b"}},
	}
	p = &pass{ops: []opResult{{out: "a"}, {out: "a"}}}
	if bad := stream.check(p); len(bad) != 1 || !strings.Contains(bad[0], "44-3") {
		t.Errorf("stream-scale check = %q", bad)
	}

	serve := &serveMixed{ops: []serveOp{
		{class: classVerify, ref: -1, verify: true},
		{class: classHitRaw, ref: 0, verify: true},
		{class: classHitDigest, ref: 0, verify: true},
		{class: classVerify, ref: -1, verify: true},
	}}
	p = &pass{ops: []opResult{
		{resultSHA: "r", out: "n", verified: true},
		{resultSHA: "r", out: "n", verified: true},
		{resultSHA: "x", out: "n", verified: false},
		failedOp(classVerify, errors.New("status 500: mapped netlist failed verification")),
	}}
	bad := serve.check(p)
	if len(bad) != 3 || !strings.Contains(bad[0], "not verified") || !strings.Contains(bad[1], "result_sha x") ||
		!strings.Contains(bad[2], "op 3 verify failed: status 500") {
		t.Errorf("serve-mixed check = %q", bad)
	}
}

func TestLayerTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "op", parent: noSpan, start: 0, end: 100},
		{name: "core.map", parent: 0, start: 5, end: 65},
		{name: "mapping.render", parent: 0, start: 65, end: 95},
		{name: "op", parent: noSpan, start: 100, end: 150},
		{name: "http.post", parent: 3, start: 100, end: 150},
		{name: "service.handle", parent: 4, start: 110, end: 140},
	}}
	total, self := tr.layerTimes()
	want := map[string][2]time.Duration{
		"op":             {150, 10},
		"core.map":       {60, 60},
		"mapping.render": {30, 30},
		"http.post":      {50, 20},
		"service.handle": {30, 30},
	}
	for name, w := range want {
		if total[name] != w[0] || self[name] != w[1] {
			t.Errorf("%s: total %v self %v, want %v %v", name, total[name], self[name], w[0], w[1])
		}
	}
	var buf bytes.Buffer
	if err := tr.writeChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Dur  float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) != len(tr.spans) {
		t.Fatalf("chrome trace: %v, %d events", err, len(doc.TraceEvents))
	}
}

// TestExpectedCoversStrata checks that the expected-hash file has an
// entry for every input a seed can draw.
func TestExpectedCoversStrata(t *testing.T) {
	doc, err := os.ReadFile(filepath.Base(expectedStreamPath))
	if err != nil {
		t.Fatal(err)
	}
	var expected map[string]map[string]string
	if err := json.Unmarshal(doc, &expected); err != nil {
		t.Fatal(err)
	}
	for _, variants := range streamStrata {
		for _, family := range variants {
			for _, lib := range streamLibs {
				if expected[family][lib.name] == "" {
					t.Errorf("no expected hash for %s x %s", family, lib.name)
				}
			}
		}
	}
}

// TestPaperSuiteSmoke runs the whole command on the shortest
// paper-suite list: every netlist must match its golden hash.
func TestPaperSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("maps the full suite four times")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(".."); err != nil { // paths are relative to the repository root
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	traceOut := filepath.Join(t.TempDir(), "trace.json")
	code := run([]string{"--workload", "paper-suite", "--seed", "1", "--seconds", "1", "--trace", "1", "--trace-out", traceOut}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool
		Metrics map[string]struct{ Value float64 }
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Metrics["trace.coverage_pct"].Value < 95 {
		t.Errorf("result: %s", lines[len(lines)-1])
	}
}
