// Command loadgen drives a running mapd with deterministic synthetic
// traffic and judges the result against SLO targets.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -rps 40 -duration 15s \
//	    -job-frac 0.2 -batch 4 -seed 7 \
//	    -slo-p99-ms 500 -slo-max-shed 0.05 -out report.json
//
// The workload is an open-loop mix generated from -seed: synchronous
// POST /map requests over a corpus of benchmark circuits (small
// comparators through ISCAS'85 netlists) spread across the built-in
// libraries, plus a configurable fraction of async batch jobs that are
// submitted, polled, and their NDJSON result streams consumed. A
// -sg-frac fraction of sync requests asks for supergate expansion
// (pinned library and bounds, so they all share one artifact) — run
// the target mapd with -store-dir and the report's sg_store_hits
// shows the persistent artifact store absorbing the regeneration
// cost. Request
// bodies above -gzip-min bytes are gzip-compressed (exercising the
// server's Content-Encoding path), and responses are requested with
// Accept-Encoding: gzip.
//
// The op sequence is drawn from a single seeded RNG in the dispatch
// loop, so two runs with the same seed issue the same requests in the
// same order — only timing differs. At the end loadgen writes a JSON
// report (p50/p90/p99 sync latency, shed rate, job throughput) to
// -out, prints a summary, and exits 1 if any SLO target was missed —
// which is what lets CI gate on service performance.
package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"log"
	"math/rand"
	"net/http"
	"os"
	"sync"
	"time"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/network"
)

// workItem is one corpus entry: a named BLIF of known size class.
type workItem struct {
	name string
	blif string
}

// corpus builds the mixed-size circuit set once; every run draws from
// the same list, so the seed fully determines the traffic.
func corpus() []workItem {
	gens := []struct {
		name string
		gen  func() *network.Network
	}{
		{"cmp16", func() *network.Network { return bench.Comparator(16) }},
		{"adder16", func() *network.Network { return bench.RippleAdder(16) }},
		{"parity32", func() *network.Network { return bench.ParityTree(32) }},
		{"mux32", func() *network.Network { return bench.MuxTree(5) }},
		{"alu8", func() *network.Network { return bench.ALU(8) }},
		{"mult8", func() *network.Network { return bench.ArrayMultiplier(8) }},
		{"c432", bench.C432},
		{"c880", bench.C880},
		{"c2670", bench.C2670},
		// One genuinely heavy circuit so the miss path's tail reflects
		// real mapping work — it is what the hit-speedup gate measures
		// the cache against.
		{"c6288", bench.C6288},
	}
	items := make([]workItem, 0, len(gens))
	for _, g := range gens {
		var buf bytes.Buffer
		if err := dagcover.WriteBLIF(&buf, g.gen()); err != nil {
			log.Fatalf("loadgen: generating %s: %v", g.name, err)
		}
		items = append(items, workItem{name: g.name, blif: buf.String()})
	}
	return items
}

var libraries = []string{"lib2", "44-1", "44-3"}

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "mapd base URL")
		duration = flag.Duration("duration", 10*time.Second, "how long to generate load")
		rps      = flag.Float64("rps", 20, "operations per second (open loop)")
		seed     = flag.Int64("seed", 1, "RNG seed; same seed, same op sequence")
		jobFrac  = flag.Float64("job-frac", 0.15, "fraction of ops that are async batch jobs")
		repFrac  = flag.Float64("repeat-frac", 0, "fraction of sync ops that re-issue an earlier op of this run verbatim (deterministic duplicate traffic for the server's result cache)")
		sgFrac   = flag.Float64("sg-frac", 0, "fraction of sync ops that request supergate expansion (pins library 44-1, bounds 3/2/64 — exercises the artifact store when mapd runs with -store-dir)")
		batch    = flag.Int("batch", 4, "netlists per batch job")
		closed   = flag.Bool("closed", false, "closed loop: at most one operation in flight, -rps becomes an upper bound — measures per-request serving cost instead of queueing under concurrency (use for the cache speedup probe, whose hit/miss latency split queueing would blur on a busy box)")
		gzipMin  = flag.Int("gzip-min", 4096, "gzip request bodies larger than this many bytes (-1 = never, and ask for uncompressed responses too)")
		out      = flag.String("out", "", "write the JSON report to this file (empty = stdout only)")
		timeout  = flag.Duration("op-timeout", 30*time.Second, "per-operation HTTP timeout")

		sloP50     = flag.Float64("slo-p50-ms", 0, "fail if sync p50 latency exceeds this (0 = disabled)")
		sloP99     = flag.Float64("slo-p99-ms", 0, "fail if sync p99 latency exceeds this (0 = disabled)")
		sloShed    = flag.Float64("slo-max-shed", -1, "fail if the 429 shed rate exceeds this fraction (negative = disabled)")
		sloJobs    = flag.Float64("slo-min-jobs-per-sec", 0, "fail if completed-job throughput falls below this (0 = disabled)")
		sloOK      = flag.Float64("slo-min-ok-rate", 0, "fail if the success rate over attempted mappings (sync requests less sheds, plus job items) falls below this fraction (0 = disabled)")
		sloHitRate = flag.Float64("slo-hit-rate-min", 0, "fail if the result-cache hit rate over successful sync requests falls below this fraction (0 = disabled)")
		sloSpeedup = flag.Float64("slo-hit-speedup-min", 0, "fail if miss-path p99 divided by hit-path p99 falls below this factor (0 = disabled)")
	)
	flag.Parse()
	if *rps <= 0 || *batch < 1 || *jobFrac < 0 || *jobFrac > 1 || *sgFrac < 0 || *sgFrac > 1 || *repFrac < 0 || *repFrac > 1 {
		log.Fatal("loadgen: need -rps > 0, -batch >= 1, and -job-frac, -sg-frac, -repeat-frac in [0, 1]")
	}

	items := corpus()
	rng := rand.New(rand.NewSource(*seed))
	client := &http.Client{Timeout: *timeout}
	var (
		mu sync.Mutex
		c  counters
		wg sync.WaitGroup
	)

	interval := time.Duration(float64(time.Second) / *rps)
	deadline := time.Now().Add(*duration)
	start := time.Now()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	log.Printf("loadgen: %v of ~%.0f ops/s against %s (seed %d, job fraction %.2f)", *duration, *rps, *addr, *seed, *jobFrac)

	// history records every materialized sync op so -repeat-frac can
	// re-issue one verbatim — the duplicate is byte-identical traffic,
	// which is exactly what the server's result cache keys on. Appended
	// only in the single-threaded dispatch loop, so the same seed still
	// produces the same op sequence.
	var history []syncOp
	// dispatch runs one materialized op: concurrently in the default
	// open loop, inline when -closed.
	dispatch := func(f func()) {
		if *closed {
			f()
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			f()
		}()
	}
	for now := start; now.Before(deadline); now = <-ticker.C {
		// All randomness happens here, single-threaded: the dispatched
		// goroutine gets a fully materialized operation.
		lib := libraries[rng.Intn(len(libraries))]
		if rng.Float64() < *jobFrac {
			picks := make([]workItem, *batch)
			for i := range picks {
				picks[i] = items[rng.Intn(len(items))]
			}
			dispatch(func() { runJob(client, *addr, lib, picks, *gzipMin, &mu, &c) })
			continue
		}
		var op syncOp
		if len(history) > 0 && rng.Float64() < *repFrac {
			op = history[rng.Intn(len(history))]
		} else {
			// Supergate requests pin the 44-1 library with fixed small
			// bounds: every such op shares one artifact key, which is what
			// turns a -store-dir on the server into hits under load.
			op = syncOp{lib: lib, item: items[rng.Intn(len(items))]}
			if rng.Float64() < *sgFrac {
				op.super, op.lib = true, "44-1"
			}
		}
		history = append(history, op)
		dispatch(func() { runSync(client, *addr, op, *gzipMin, &mu, &c) })
	}
	wg.Wait()
	elapsed := time.Since(start)

	slo := SLO{P50Millis: *sloP50, P99Millis: *sloP99, MaxShedRate: *sloShed, MinJobsPerSec: *sloJobs, MinOKRate: *sloOK, MinHitRate: *sloHitRate, MinHitSpeedup: *sloSpeedup}
	report := buildReport(*addr, *seed, *rps, elapsed, &c, slo)

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		log.Fatalf("loadgen: marshal report: %v", err)
	}
	blob = append(blob, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, blob, 0o644); err != nil {
			log.Fatalf("loadgen: write %s: %v", *out, err)
		}
	}
	os.Stdout.Write(blob)

	log.Printf("loadgen: sync %d ok / %d shed / %d failed (%d supergate, %d store hits); p50 %.2fms p99 %.2fms; jobs %d done (%.2f/s); shed rate %.4f",
		report.Sync.OK, report.Sync.Shed, report.Sync.Failed,
		report.Sync.Supergate, report.Sync.SGHits,
		report.Sync.P50Millis, report.Sync.P99Millis,
		report.Jobs.Done, report.Jobs.PerSecond, report.ShedRate)
	log.Printf("loadgen: result cache: %.4f hit rate (%d mem / %d disk vs %d miss); hit-path p50 %.2fms p99 %.2fms, miss-path p50 %.2fms p99 %.2fms",
		report.Sync.HitRate, report.Sync.ResultHitMem, report.Sync.ResultHitDisk, report.Sync.ResultMiss,
		report.Sync.HitP50Millis, report.Sync.HitP99Millis, report.Sync.MissP50Millis, report.Sync.MissP99Millis)
	if !report.Pass {
		for _, b := range report.Breaches {
			log.Printf("loadgen: SLO BREACH: %s", b)
		}
		os.Exit(1)
	}
	log.Printf("loadgen: all SLO targets met")
}

// postJSON sends body as JSON, gzip-compressing it above gzipMin bytes
// and always advertising Accept-Encoding: gzip (the stdlib transport
// decompresses transparently only when it added the header itself, so
// we set it explicitly and decode in readBody).
func postJSON(client *http.Client, url string, body any, gzipMin int) (*http.Response, error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return nil, err
	}
	var rd io.Reader = bytes.NewReader(raw)
	compressed := false
	if gzipMin >= 0 && len(raw) > gzipMin {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(raw); err == nil && zw.Close() == nil {
			rd, compressed = &buf, true
		}
	}
	req, err := http.NewRequest(http.MethodPost, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if compressed {
		req.Header.Set("Content-Encoding", "gzip")
	}
	if gzipMin < 0 {
		// -gzip-min -1 turns compression off in both directions (without
		// this the stdlib transport transparently asks for gzip responses).
		// A latency probe wants identity encoding: on large responses the
		// compressor costs more than a cache hit, equally on both the hit
		// and miss paths, which would blur the very split being measured.
		req.Header.Set("Accept-Encoding", "identity")
	}
	return client.Do(req)
}

// readBody drains (and if needed gunzips) a response body.
func readBody(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var rd io.Reader = resp.Body
	if resp.Header.Get("Content-Encoding") == "gzip" {
		zr, err := gzip.NewReader(resp.Body)
		if err != nil {
			return nil, err
		}
		defer zr.Close()
		rd = zr
	}
	return io.ReadAll(rd)
}

// syncOp is one fully materialized sync /map operation; re-issuing the
// same value produces byte-identical traffic (the repeat stream the
// server's result cache keys on).
type syncOp struct {
	lib   string
	item  workItem
	super bool
}

// runSync issues one POST /map and records its outcome. Supergate
// requests additionally record whether the server served the expanded
// library from its persistent artifact store; every success is
// classified by the response's result_cache tier so the report can
// split hit-path from miss-path latency.
func runSync(client *http.Client, addr string, op syncOp, gzipMin int, mu *sync.Mutex, c *counters) {
	body := map[string]any{"blif": op.item.blif, "library": op.lib}
	if op.super {
		body["supergates"] = map[string]any{"max_inputs": 3, "max_depth": 2, "max_gates": 64}
	}
	t0 := time.Now()
	resp, err := postJSON(client, addr+"/map", body, gzipMin)
	mu.Lock()
	defer mu.Unlock()
	c.syncSent++
	if op.super {
		c.syncSG++
	}
	if err != nil {
		c.syncFailed++
		return
	}
	raw, rerr := readBody(resp)
	latency := time.Since(t0)
	switch {
	case resp.StatusCode == http.StatusOK && rerr == nil:
		c.syncOK++
		ms := float64(latency) / float64(time.Millisecond)
		c.syncLatencyMillis = append(c.syncLatencyMillis, ms)
		var mr struct {
			SGStoreHit  *bool  `json:"sg_store_hit"`
			ResultCache string `json:"result_cache"`
		}
		_ = json.Unmarshal(raw, &mr)
		if op.super && mr.SGStoreHit != nil && *mr.SGStoreHit {
			c.syncSGStoreHits++
		}
		switch mr.ResultCache {
		case "hit-mem":
			c.syncHitMem++
			c.hitLatencyMillis = append(c.hitLatencyMillis, ms)
		case "hit-disk":
			c.syncHitDisk++
			c.hitLatencyMillis = append(c.hitLatencyMillis, ms)
		default:
			// "miss", or absent (result caching off / older server):
			// either way the engine (or nothing cached) served it.
			c.syncMiss++
			c.missLatencyMillis = append(c.missLatencyMillis, ms)
		}
	case resp.StatusCode == http.StatusTooManyRequests:
		c.syncShed++
	default:
		c.syncFailed++
	}
}

// runJob submits one batch job, polls it to a terminal state, then
// consumes the NDJSON result stream.
func runJob(client *http.Client, addr, lib string, picks []workItem, gzipMin int, mu *sync.Mutex, c *counters) {
	type jitem struct {
		Name string `json:"name"`
		BLIF string `json:"blif"`
	}
	items := make([]jitem, len(picks))
	for i, p := range picks {
		items[i] = jitem{Name: p.name, BLIF: p.blif}
	}
	resp, err := postJSON(client, addr+"/jobs", map[string]any{"items": items, "library": lib}, gzipMin)
	if err != nil {
		mu.Lock()
		c.jobsFailed++
		mu.Unlock()
		return
	}
	body, rerr := readBody(resp)
	if resp.StatusCode == http.StatusTooManyRequests {
		mu.Lock()
		c.jobsShed++
		mu.Unlock()
		return
	}
	if resp.StatusCode != http.StatusAccepted || rerr != nil {
		mu.Lock()
		c.jobsFailed++
		mu.Unlock()
		return
	}
	var acc struct {
		JobID     string `json:"job_id"`
		Items     int    `json:"items"`
		StatusURL string `json:"status_url"`
		ResultURL string `json:"result_url"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		mu.Lock()
		c.jobsFailed++
		mu.Unlock()
		return
	}
	mu.Lock()
	c.jobsSubmitted++
	c.jobItems += len(picks)
	mu.Unlock()

	// Poll until terminal (bounded by the op timeout on each GET plus
	// this loop's own cap).
	var state string
	var itemsOK int
	for waited := time.Duration(0); waited < 2*time.Minute; waited += 25 * time.Millisecond {
		st, err := client.Get(addr + acc.StatusURL)
		if err != nil {
			mu.Lock()
			c.jobsFailed++
			mu.Unlock()
			return
		}
		sb, rerr := readBody(st)
		if st.StatusCode != http.StatusOK || rerr != nil {
			mu.Lock()
			c.jobsFailed++
			mu.Unlock()
			return
		}
		// completed counts every settled item; failed and cancelled
		// are its unsuccessful subsets.
		var status struct {
			State     string `json:"state"`
			Completed int    `json:"completed"`
			Failed    int    `json:"failed"`
			Cancelled int    `json:"cancelled"`
		}
		if err := json.Unmarshal(sb, &status); err != nil {
			mu.Lock()
			c.jobsFailed++
			mu.Unlock()
			return
		}
		if status.State == "done" || status.State == "failed" || status.State == "cancelled" {
			state, itemsOK = status.State, status.Completed-status.Failed-status.Cancelled
			break
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Consume the result stream, count records, and sum the per-item
	// response_bytes each record declares — the uncompressed payload
	// volume, which against the gzipped wire size is the job-stream
	// compression accounting.
	records := 0
	var respBytes int64
	if res, err := client.Get(addr + acc.ResultURL); err == nil {
		var rd io.Reader = res.Body
		if res.Header.Get("Content-Encoding") == "gzip" {
			if zr, err := gzip.NewReader(res.Body); err == nil {
				defer zr.Close()
				rd = zr
			}
		}
		sc := bufio.NewScanner(rd)
		sc.Buffer(make([]byte, 0, 64<<10), 64<<20)
		for sc.Scan() {
			if len(bytes.TrimSpace(sc.Bytes())) == 0 {
				continue
			}
			records++
			var rec struct {
				ResponseBytes int64 `json:"response_bytes"`
			}
			if json.Unmarshal(sc.Bytes(), &rec) == nil {
				respBytes += rec.ResponseBytes
			}
		}
		res.Body.Close()
	}

	mu.Lock()
	defer mu.Unlock()
	c.streamRecords += records
	c.jobRespBytes += respBytes
	c.jobItemsOK += itemsOK
	switch state {
	case "done":
		c.jobsDone++
	default:
		c.jobsFailed++
	}
}
