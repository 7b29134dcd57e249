package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/service"
)

// serveCallers is the closed-loop client count, one per core of the
// 2-core reference box; each caller has its own connection.
const serveCallers = 2

// serveOpsPerSecond sizes the serve-mixed operation list: about half
// of what a 2-core x86 box with a quiet host consumes per second. The
// result cache caps it: at 25 s the list's 592 fresh responses fill
// 50 MB of the default 64 MiB. A repeat of an evicted response would
// be mapped again with a warmer match memo, so its engine counters and
// result_sha would differ from its original's.
const serveOpsPerSecond = 60

// serveBlock is the traffic mix: every block of a caller's list holds
// this many operations of each kind, in seeded order.
var serveBlock = []struct {
	kind  string
	count int
}{{"fresh", 8}, {classHitRaw, 7}, {classHitDigest, 5}}

// Fresh circuits are bench.RandomDAG networks with a log-uniform gate
// count in [freshMinGates, freshMaxGates); every verifyEvery-th fresh
// request asks the server to verify its result. A run's responses fit
// the server's default 64 MiB result cache (see serveOpsPerSecond), so
// every repeat hits.
const (
	freshMinGates = 300
	freshMaxGates = 3000
	freshInputs   = 32
	verifyEvery   = 10
)

// Operation classes. A fresh request is a miss (verify when it asks
// for verification); a verbatim repeat is served by the raw-request
// lookaside; a repeat with a leading BLIF comment has new bytes but
// the same subject digest, so it is a digest-keyed hit after parse,
// build and digest.
const (
	classMiss      = "miss"
	classVerify    = "verify"
	classHitRaw    = "hit_raw"
	classHitDigest = "hit_digest"
)

var serveClasses = []string{classMiss, classHitRaw, classHitDigest, classVerify}

// servicePhases are the server's phase_ms keys.
var servicePhases = []string{"queue", "parse", "compile", "map", "respond"}

// spanHeader carries "op parent-span caller" to the server side of a
// traced request, so the handler's span nests under the client's.
const spanHeader = "X-Perfbench-Span"

type serveOp struct {
	class  string
	caller int
	ref    int // original of a repeat, as an index into the list; -1 when fresh
	// the bench.RandomDAG parameters of a fresh circuit
	gates   int
	dagSeed int64
	lib     int // index into paperLibs
	verify  bool
	blif    string
}

// serveMixed measures the serving layer: an in-process mapd on a
// loopback listener under a seeded mix of misses and two kinds of hit.
type serveMixed struct {
	ops     []serveOp
	srv     *service.Server
	hs      *http.Server
	served  chan error
	url     string
	clients []*http.Client
	tr      atomic.Pointer[tracer]
}

func setupServeMixed(seed int64, seconds int) (workload, error) {
	ops, err := serveOpList(seed, seconds)
	if err != nil {
		return nil, err
	}
	w := &serveMixed{ops: ops, srv: service.New(service.Config{}), served: make(chan error, 1)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		w.srv.Close()
		return nil, err
	}
	w.url = "http://" + ln.Addr().String() + "/map"
	w.hs = &http.Server{Handler: http.HandlerFunc(w.handle)}
	go func() { w.served <- w.hs.Serve(ln) }()
	for c := 0; c < serveCallers; c++ {
		w.clients = append(w.clients, &http.Client{
			Timeout:   2 * time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		})
	}
	if err := w.warm(); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

// warm is the untimed warm pass: one request per library on a circuit
// outside the operation list, so every library is compiled and the
// connections are open before timing starts.
func (w *serveMixed) warm() error {
	var buf bytes.Buffer
	if err := dagcover.WriteBLIF(&buf, bench.C432()); err != nil {
		return err
	}
	for li := range paperLibs {
		for c := range w.clients {
			op := serveOp{class: classMiss, caller: c, ref: -1, lib: li, blif: buf.String()}
			if r := w.do(nil, &op, -1); r.failed {
				return fmt.Errorf("warm-up request: %s", r.err)
			}
		}
	}
	return nil
}

// serveOpList draws the operation list from the seed. Each caller gets
// its own half, and a repeat only replays an earlier fresh request of
// the same caller, which has therefore completed: every repeat is a
// hit, never a coalesced wait, whatever the timing.
//
// The fresh requests of every caller follow one balanced design: their
// sizes are stratified over the gate range, and the library and the
// verify flag go by size rank, so each library and the verify class
// span the whole range. Repeats pick their original by a stratified
// size quantile too. The seed orders the list and draws the circuits,
// but every seed times the same mix of sizes, so the medians and tails
// compare across seeds.
func serveOpList(seed int64, seconds int) ([]serveOp, error) {
	blockLen := 0
	for _, b := range serveBlock {
		blockLen += b.count
	}
	blocks := max(1, seconds*serveOpsPerSecond/(serveCallers*blockLen))
	rng := rand.New(rand.NewSource(seed))
	var ops []serveOp
	for c := 0; c < serveCallers; c++ {
		var kinds []string
		for b := 0; b < blocks; b++ {
			var block []string
			for _, k := range serveBlock {
				for i := 0; i < k.count; i++ {
					block = append(block, k.kind)
				}
			}
			rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
			kinds = append(kinds, block...)
		}
		// A caller's first operation must be fresh: there is nothing
		// earlier to repeat.
		for i, k := range kinds {
			if k == "fresh" {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
		// quantiles hands out, per kind, one draw from each of n equal
		// bands of [0, 1), in seeded order.
		quantiles := map[string][]float64{}
		for _, k := range serveBlock {
			n := blocks * k.count
			for _, band := range rng.Perm(n) {
				quantiles[k.kind] = append(quantiles[k.kind], (float64(band)+rng.Float64())/float64(n))
			}
		}
		nFresh := blocks * serveBlock[0].count
		libOff, verifyOff := rng.Intn(len(paperLibs)), rng.Intn(verifyEvery)
		var fresh []int // this caller's fresh ops so far, as list indices
		for _, kind := range kinds {
			q := quantiles[kind][0]
			quantiles[kind] = quantiles[kind][1:]
			op := serveOp{caller: c, ref: -1}
			if kind == "fresh" {
				rank := int(q * float64(nFresh))
				op.gates = freshGates(q)
				op.dagSeed = rng.Int63()
				op.lib = (rank + libOff) % len(paperLibs)
				op.verify = (rank+verifyOff)%verifyEvery == 0
				op.class = classMiss
				if op.verify {
					op.class = classVerify
				}
				fresh = append(fresh, len(ops))
			} else {
				// The earlier fresh op whose size is nearest the drawn
				// quantile's.
				want := freshGates(q)
				op.ref = fresh[0]
				for _, f := range fresh {
					if abs(ops[f].gates-want) < abs(ops[op.ref].gates-want) {
						op.ref = f
					}
				}
				orig := &ops[op.ref]
				op.class, op.gates, op.lib, op.verify = kind, orig.gates, orig.lib, orig.verify
			}
			ops = append(ops, op)
		}
	}
	if err := renderFresh(ops); err != nil {
		return nil, err
	}
	for i := range ops {
		switch ops[i].class {
		case classHitRaw:
			ops[i].blif = ops[ops[i].ref].blif
		case classHitDigest:
			ops[i].blif = fmt.Sprintf("# perfbench repeat %d of %d\n", i, ops[i].ref) + ops[ops[i].ref].blif
		}
	}
	return ops, nil
}

// freshGates maps a quantile in [0, 1) to a log-uniform gate count.
func freshGates(q float64) int {
	return int(freshMinGates * math.Pow(freshMaxGates/freshMinGates, q))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// renderFresh generates every fresh circuit's BLIF, on one goroutine
// per core: it is most of serve-mixed's set-up.
func renderFresh(ops []serveOp) error {
	var idx []int
	for i, op := range ops {
		if op.ref == -1 {
			idx = append(idx, i)
		}
	}
	errs := make([]error, serveCallers)
	var wg sync.WaitGroup
	for g := 0; g < serveCallers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := g; k < len(idx); k += serveCallers {
				op := &ops[idx[k]]
				var buf strings.Builder
				if err := dagcover.WriteBLIF(&buf, bench.RandomDAG(freshInputs, op.gates, op.dagSeed)); err != nil {
					errs[g] = fmt.Errorf("render RandomDAG(%d, %d, %d): %w", freshInputs, op.gates, op.dagSeed, err)
					return
				}
				op.blif = buf.String()
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// handle wraps the service handler with the server side of a traced
// request's span.
func (w *serveMixed) handle(rw http.ResponseWriter, r *http.Request) {
	tr := w.tr.Load()
	sp := noSpan
	if tr != nil {
		var op, parent, tid int
		if _, err := fmt.Sscan(r.Header.Get(spanHeader), &op, &parent, &tid); err == nil {
			sp = tr.begin("service.handle", op, parent, tid)
		}
	}
	w.srv.Handler().ServeHTTP(rw, r)
	tr.end(sp)
}

func (w *serveMixed) run(tr *tracer) (*pass, error) {
	w.tr.Store(tr)
	defer w.tr.Store(nil)
	p := newPass(len(w.ops))
	p.ops = p.ops[:len(w.ops)]
	before := w.srv.Stats()
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range w.ops {
				if w.ops[i].caller == c {
					p.ops[i] = w.do(tr, &w.ops[i], i)
				}
			}
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(t0)
	after := w.srv.Stats()

	s := p.sums
	hits := func(st service.StatsSnapshot) float64 {
		rc := st.ResultCache
		return float64(rc.MemHits + rc.DiskHits + rc.Coalesced)
	}
	s["service.hits"] = hits(after) - hits(before)
	s["service.misses"] = float64(after.ResultCache.Misses - before.ResultCache.Misses)
	s["service.coalesced"] = float64(after.ResultCache.Coalesced - before.ResultCache.Coalesced)
	s["service.shed"] = float64(after.Requests.Overloaded - before.Requests.Overloaded)
	for _, ph := range servicePhases {
		s["service.phase."+ph] = after.PhaseMillis[ph] - before.PhaseMillis[ph]
	}
	s["match.memo_entries"] = float64(after.Memo.TableEntries)
	s["service.calls"] = float64(len(p.ops))
	for _, op := range p.ops {
		if op.failed {
			continue
		}
		s["service.ok"]++
		s["service.queue_wait_ms"] += op.ms - op.serverMS
		if op.tier == "miss" {
			s["engine.ops"]++
			s["subject.nodes"] += float64(op.nodes)
			s["match.patterns"] += float64(op.patterns)
			s["match.memo_hits"] += float64(op.memoHits)
			s["match.memo_misses"] += float64(op.memoMisses)
		}
	}
	return p, nil
}

// mapResponse is the part of the /map response the benchmark reads.
type mapResponse struct {
	Circuit      string  `json:"circuit"`
	Netlist      string  `json:"netlist"`
	Delay        float64 `json:"delay"`
	Area         float64 `json:"area"`
	SubjectNodes int     `json:"subject_nodes"`
	Patterns     int     `json:"patterns_tried"`
	MemoHits     int     `json:"memo_hits"`
	MemoMisses   int     `json:"memo_misses"`
	ResultCache  string  `json:"result_cache"`
	ResultSHA    string  `json:"result_sha"`
	Verified     bool    `json:"verified"`
	ElapsedMS    float64 `json:"elapsed_ms"`
}

// do sends one request and reads the whole response. A transport
// error, a non-200 status (a 429 shed, a 5xx, a 504 timeout) or an
// undecodable body is a failed operation.
func (w *serveMixed) do(tr *tracer, o *serveOp, i int) opResult {
	root := tr.begin("op", i, noSpan, o.caller)
	defer tr.end(root)
	t0 := time.Now()
	sp := tr.begin("client.encode", i, root, o.caller)
	body, err := requestBody(o)
	tr.end(sp)
	if err != nil {
		return failedOp(o.class, err)
	}
	sp = tr.begin("http.post", i, root, o.caller)
	raw, err := w.post(tr, o.caller, body, fmt.Sprintf("%d %d %d", i, sp, o.caller))
	tr.end(sp)
	if err != nil {
		return failedOp(o.class, err)
	}
	sp = tr.begin("client.decode", i, root, o.caller)
	var resp mapResponse
	err = json.Unmarshal(raw, &resp)
	tr.end(sp)
	d := time.Since(t0)
	if err != nil {
		return failedOp(o.class, fmt.Errorf("decode response: %w", err))
	}
	sum := sha256.Sum256([]byte(resp.Netlist))
	r := opResult{class: o.class, ms: float64(d.Nanoseconds()) / 1e6, ref: o.ref,
		out: hex.EncodeToString(sum[:]), delay: resp.Delay, area: resp.Area,
		resultSHA: resp.ResultSHA, verify: o.verify, verified: resp.Verified,
		tier: resp.ResultCache, serverMS: resp.ElapsedMS, nodes: resp.SubjectNodes,
		patterns: resp.Patterns, memoHits: resp.MemoHits, memoMisses: resp.MemoMisses}
	if o.ref == -1 {
		r.key = resp.Circuit + "/" + paperLibs[o.lib].name
	}
	return r
}

// requestBody encodes an operation's /map request, with the delay
// model of the library's table in the paper.
func requestBody(o *serveOp) ([]byte, error) {
	lib := paperLibs[o.lib]
	req := service.MapRequest{BLIF: o.blif, Library: lib.name, Verify: o.verify}
	if lib.delay == dagcover.UnitDelay {
		req.Delay = "unit"
	}
	return json.Marshal(&req)
}

// post sends one /map request on the caller's connection.
func (w *serveMixed) post(tr *tracer, caller int, body []byte, span string) ([]byte, error) {
	req, err := http.NewRequest(http.MethodPost, w.url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(spanHeader, span)
	}
	resp, err := w.clients[caller].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

func (w *serveMixed) check(p *pass) []string {
	var bad []string
	for i, op := range p.ops {
		o := &w.ops[i]
		if op.failed {
			// The service answers a netlist that fails verification
			// with a 500, and sheds nothing at this load: any failure
			// is a wrong output.
			bad = append(bad, fmt.Sprintf("op %d %s failed: %s", i, o.class, op.err))
			continue
		}
		if op.resultSHA == "" {
			bad = append(bad, fmt.Sprintf("op %d %s: response has no result_sha", i, o.class))
		}
		if o.verify && !op.verified {
			bad = append(bad, fmt.Sprintf("op %d %s: asked to verify, response not verified", i, o.class))
		}
		if o.ref >= 0 {
			orig := p.ops[o.ref]
			if !orig.failed && (op.resultSHA != orig.resultSHA || op.out != orig.out) { // a failed original is a mismatch of its own
				bad = append(bad, fmt.Sprintf("op %d %s of op %d: result_sha %s netlist %s, original %s %s",
					i, o.class, o.ref, op.resultSHA, op.out, orig.resultSHA, orig.out))
			}
		}
	}
	return bad
}

func (w *serveMixed) close() {
	w.hs.Close()
	<-w.served
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
	w.srv.Close()
}
