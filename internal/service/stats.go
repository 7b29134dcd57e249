package service

import (
	"math"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"dagcover"
	"dagcover/internal/obs"
)

// latencyBounds are the fixed upper bounds (seconds) of the request
// latency histogram. The spread covers sub-millisecond cache-hit
// mappings through multi-second supergate compilations.
var latencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// patternsBounds are the fixed upper bounds of the per-request
// patterns-tried histogram (pattern plans attempted per mapping).
var patternsBounds = []float64{
	1e2, 3e2, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6, 3e6, 1e7,
}

// histogram is a fixed-bucket histogram: counts[i] holds observations
// v <= bounds[i] and > bounds[i-1]; counts[len(bounds)] is the
// overflow bucket. Not self-locking — the owner synchronizes.
type histogram struct {
	bounds []float64
	counts []uint64
	sum    float64
	n      uint64
}

func newHistogram(bounds []float64) histogram {
	return histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// clone copies the histogram for lock-free post-processing.
func (h *histogram) clone() histogram {
	return histogram{
		bounds: h.bounds,
		counts: append([]uint64(nil), h.counts...),
		sum:    h.sum,
		n:      h.n,
	}
}

// quantile estimates the q-quantile (0 < q < 1) by linear
// interpolation within the bucket holding the target rank — the
// standard fixed-bucket estimate (what a PromQL histogram_quantile
// computes), replacing the earlier sort-based nearest-rank over a
// sample ring. Observations beyond the last bound clamp to it.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	target := q * float64(h.n)
	cum := 0.0
	for i, c := range h.counts {
		prev := cum
		cum += float64(c)
		if cum < target || c == 0 {
			continue
		}
		if i >= len(h.bounds) {
			return h.bounds[len(h.bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		return lo + (hi-lo)*(target-prev)/float64(c)
	}
	return h.bounds[len(h.bounds)-1]
}

// phase indexes a request's wall-time phases, in report order.
type phase int

const (
	phaseQueue phase = iota
	phaseParse
	phaseCompile
	phaseMap
	phaseRespond
	numPhases
)

// phaseNames are the phases' report names: the /stats phase_ms keys,
// the mapd_phase_seconds_total labels, the wide-event and job-item
// phase_ms keys, and the access log's <name>_ms attributes.
var phaseNames = [numPhases]string{"queue", "parse", "compile", "map", "respond"}

// phaseTimes accumulates request-phase wall time (nanoseconds) across
// all requests, indexed by phase.
type phaseTimes [numPhases]atomic.Int64

// add folds one request's phase breakdown into the running totals.
func (p *phaseTimes) add(ph *reqPhases) {
	for i := range p {
		p[i].Add(int64(ph.dur[i]))
	}
}

// result classifies a finished mapping request.
type result int

const (
	resultOK result = iota
	resultBadRequest
	resultTooLarge
	resultOverloaded
	resultTimeout
	resultCanceled
	resultInternal
	numResults
)

// resultNames are the result labels the metrics families and wide
// events share, in exposition order.
var resultNames = [numResults]string{"ok", "bad_request", "too_large", "overloaded", "timeout", "canceled", "internal"}

func (r result) String() string { return resultNames[r] }

// resultLabel maps an HTTP-style status to its result.
func resultLabel(status int) result {
	switch status {
	case http.StatusOK:
		return resultOK
	case http.StatusRequestEntityTooLarge:
		return resultTooLarge
	case http.StatusTooManyRequests:
		return resultOverloaded
	case http.StatusGatewayTimeout:
		return resultTimeout
	case statusClientClosedRequest:
		return resultCanceled
	case http.StatusBadRequest, http.StatusNotFound, http.StatusMethodNotAllowed:
		return resultBadRequest
	default:
		return resultInternal
	}
}

// metrics aggregates the server's counters. Counters are atomics
// bumped on the request path; per-library histograms take a short
// mutex only when recording or snapshotting.
type metrics struct {
	start time.Time

	total    atomic.Uint64             // every /map and /jobs request received
	requests [numResults]atomic.Uint64 // mapping requests finished, by result

	patternsTried atomic.Uint64
	// memoHits/memoMisses sum the structural match-memo consultations
	// of the mappings this server computed (the MapResponse fields of
	// every engine run; cached servings add nothing).
	memoHits   atomic.Uint64
	memoMisses atomic.Uint64

	phases phaseTimes

	// Whole-result cache counters: hits per tier, misses (engine runs
	// that published a result), and disk publications.
	rcMemHits     atomic.Uint64
	rcDiskHits    atomic.Uint64
	rcMisses      atomic.Uint64
	rcStores      atomic.Uint64
	rcStoreErrors atomic.Uint64

	jobs jobMetrics

	mu     sync.Mutex
	perLib map[string]*libMetrics
}

// jobMetrics tracks the async job subsystem separately from the /map
// request counters: a batch of 64 netlists is one job and 64 items,
// never 64 synthetic /map requests.
type jobMetrics struct {
	submitted atomic.Uint64 // jobs accepted (202)
	done      atomic.Uint64 // jobs finished with >= 1 mapped item
	failed    atomic.Uint64 // jobs where every item failed (or the library did)
	cancelled atomic.Uint64 // jobs ended by DELETE

	itemsOK        atomic.Uint64 // items mapped (200)
	itemsFailed    atomic.Uint64 // items rejected (400/500)
	itemsTimeout   atomic.Uint64 // items past their deadline (504)
	itemsCancelled atomic.Uint64 // items settled 499 by cancellation

	mu          sync.Mutex
	itemLatency histogram // seconds per mapped item
}

// recordWork folds one mapping's pattern-matching and memo work into
// the global work counters, which /map requests and batch items share
// since the engine work is the same. It touches no request counter.
func (m *metrics) recordWork(patternsTried, memoHits, memoMisses int) {
	m.patternsTried.Add(uint64(patternsTried))
	m.memoHits.Add(uint64(memoHits))
	m.memoMisses.Add(uint64(memoMisses))
}

// libMetrics is the per-library slice of the stats: request count,
// pattern-match work, and fixed-bucket latency / patterns-tried
// histograms.
type libMetrics struct {
	mu            sync.Mutex
	requests      uint64
	patternsTried uint64
	latency       histogram // seconds
	patterns      histogram // patterns tried per request
}

func newMetrics() *metrics {
	m := &metrics{start: time.Now(), perLib: make(map[string]*libMetrics)}
	m.jobs.itemLatency = newHistogram(latencyBounds)
	return m
}

// lib returns (creating if needed) the per-library metrics bucket.
func (m *metrics) lib(name string) *libMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	lm := m.perLib[name]
	if lm == nil {
		lm = &libMetrics{
			latency:  newHistogram(latencyBounds),
			patterns: newHistogram(patternsBounds),
		}
		m.perLib[name] = lm
	}
	return lm
}

// recordServed logs one successful mapping against its library.
func (m *metrics) recordServed(lib string, latency time.Duration, patternsTried, memoHits, memoMisses int) {
	m.requests[resultOK].Add(1)
	m.recordWork(patternsTried, memoHits, memoMisses)
	lm := m.lib(lib)
	lm.mu.Lock()
	lm.requests++
	lm.patternsTried += uint64(patternsTried)
	lm.latency.observe(latency.Seconds())
	lm.patterns.observe(float64(patternsTried))
	lm.mu.Unlock()
}

// LibrarySnapshot is the /stats view of one library. The quantiles are
// histogram estimates (linear interpolation within a fixed bucket).
type LibrarySnapshot struct {
	Requests      uint64  `json:"requests"`
	PatternsTried uint64  `json:"patterns_tried"`
	P50Millis     float64 `json:"p50_ms"`
	P99Millis     float64 `json:"p99_ms"`

	// The histograms behind the quantiles, for /metrics.
	latency, patterns histogram
}

// StatsSnapshot is the server's observable state at one instant. /stats
// encodes it as JSON and /metrics as Prometheus text; the unexported
// fields carry what only /metrics renders.
type StatsSnapshot struct {
	UptimeMillis int64 `json:"uptime_ms"`
	// Requests counts every /map and /jobs request received (Total)
	// and the mapping requests finished, by result: every /map
	// response, plus /jobs submissions rejected before a job was
	// created. Once no request is in flight, Total equals the sum of
	// the result counters plus Jobs.Submitted.
	Requests struct {
		Total      uint64 `json:"total"`
		OK         uint64 `json:"ok"`
		BadRequest uint64 `json:"bad_request"`
		TooLarge   uint64 `json:"too_large"`
		Overloaded uint64 `json:"overloaded"`
		Timeout    uint64 `json:"timeout"`
		Canceled   uint64 `json:"canceled"`
		Internal   uint64 `json:"internal"`
	} `json:"requests"`
	// Jobs is the async job subsystem: lifecycle counters, resident
	// jobs per state, and per-item latency quantiles for mapped items.
	Jobs struct {
		Submitted      uint64         `json:"submitted"`
		Done           uint64         `json:"done"`
		Failed         uint64         `json:"failed"`
		Cancelled      uint64         `json:"cancelled"`
		Evicted        uint64         `json:"evicted"`
		Resident       int            `json:"resident"`
		Capacity       int            `json:"capacity"`
		ByState        map[string]int `json:"by_state"`
		ItemsOK        uint64         `json:"items_ok"`
		ItemsFailed    uint64         `json:"items_failed"`
		ItemsTimeout   uint64         `json:"items_timeout"`
		ItemsCancelled uint64         `json:"items_cancelled"`
		ItemP50Millis  float64        `json:"item_p50_ms"`
		ItemP99Millis  float64        `json:"item_p99_ms"`

		itemLatency histogram
	} `json:"jobs"`
	Cache struct {
		Libraries int    `json:"libraries"`
		Hits      uint64 `json:"hits"`
		Misses    uint64 `json:"misses"`
		Compiles  uint64 `json:"compiles"`
		// Entries lists each cached compiled library with its gate and
		// pattern counts, so supergate-inflated entries are visible.
		Entries []EntryInfo `json:"entries"`
	} `json:"cache"`
	Queue struct {
		Running       int `json:"running"`
		Queued        int `json:"queued"`
		Concurrency   int `json:"concurrency"`
		QueueCapacity int `json:"queue_capacity"`
	} `json:"queue"`
	PatternsTried uint64 `json:"patterns_tried"`
	// Memo sums the structural match-memo consultations of the
	// mappings this server computed. Each Map call records into its own
	// tables, so there is no server-wide table to report.
	Memo struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
		// TableEntries is always zero and never encoded; it exists only
		// for perfbench, which still reads it.
		TableEntries int `json:"-"`
	} `json:"memo"`
	// Store is the persistent artifact store's view: hit/miss/write
	// counters, corruption quarantines, disk usage against the GC
	// budget, and the generation seconds the store has saved. Absent
	// when the server runs without a store.
	Store *StoreSnapshot `json:"store,omitempty"`
	// ResultCache is the whole-result cache: tiered hit/miss
	// counters plus the in-memory LRU's occupancy. Absent when result
	// caching is disabled.
	ResultCache *ResultCacheSnapshot `json:"result_cache,omitempty"`
	// PhaseMillis breaks served wall time down by request phase,
	// accumulated across all requests.
	PhaseMillis map[string]float64         `json:"phase_ms"`
	Libraries   map[string]LibrarySnapshot `json:"libraries"`
	// Build identifies the running binary (also /healthz and the
	// mapd_build_info gauge).
	Build BuildInfo `json:"build"`
	// Runtime is the Go-runtime telemetry (heap, GC pauses, goroutines,
	// scheduler latency), read when the snapshot was taken.
	Runtime obs.RuntimeSample `json:"runtime"`
}

// requestsByResult binds each result to its Requests field.
func (st *StatsSnapshot) requestsByResult() [numResults]*uint64 {
	r := &st.Requests
	return [numResults]*uint64{&r.OK, &r.BadRequest, &r.TooLarge, &r.Overloaded, &r.Timeout, &r.Canceled, &r.Internal}
}

// ResultCacheSnapshot is the /stats view of the whole-result cache.
type ResultCacheSnapshot struct {
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Misses      uint64 `json:"misses"`
	Stores      uint64 `json:"stores"`
	StoreErrors uint64 `json:"store_errors"`
	// Coalesced is always zero and never encoded (identical misses are
	// not coalesced); it exists only for perfbench, which still reads it.
	Coalesced uint64 `json:"-"`
	// In-memory LRU occupancy against its byte budget.
	Entries  int   `json:"entries"`
	Bytes    int64 `json:"bytes"`
	MaxBytes int64 `json:"max_bytes"`
}

// StoreSnapshot is the /stats view of the artifact store.
type StoreSnapshot = dagcover.ArtifactStoreStats

// Stats takes the snapshot behind /stats and /metrics. It is the one
// reader of server state for both: each library's counters and
// histograms are copied under one lock, and the runtime telemetry is
// read now.
func (s *Server) Stats() StatsSnapshot {
	m := s.metrics
	var st StatsSnapshot
	st.UptimeMillis = time.Since(m.start).Milliseconds()
	st.Requests.Total = m.total.Load()
	for r, field := range st.requestsByResult() {
		*field = m.requests[r].Load()
	}

	j := &st.Jobs
	j.Submitted = m.jobs.submitted.Load()
	j.Done = m.jobs.done.Load()
	j.Failed = m.jobs.failed.Load()
	j.Cancelled = m.jobs.cancelled.Load()
	j.Evicted = s.jobs.Evictions()
	j.Resident = s.jobs.Len()
	j.Capacity, _ = s.jobs.Capacity()
	j.ByState = make(map[string]int)
	for state, n := range s.jobs.CountsByState() {
		j.ByState[state.String()] = n
	}
	j.ItemsOK = m.jobs.itemsOK.Load()
	j.ItemsFailed = m.jobs.itemsFailed.Load()
	j.ItemsTimeout = m.jobs.itemsTimeout.Load()
	j.ItemsCancelled = m.jobs.itemsCancelled.Load()
	m.jobs.mu.Lock()
	j.itemLatency = m.jobs.itemLatency.clone()
	m.jobs.mu.Unlock()
	if j.itemLatency.n > 0 {
		j.ItemP50Millis = roundMillis(j.itemLatency.quantile(0.50) * 1e3)
		j.ItemP99Millis = roundMillis(j.itemLatency.quantile(0.99) * 1e3)
	}

	st.Cache.Libraries = s.cache.Len()
	st.Cache.Hits, st.Cache.Misses, st.Cache.Compiles = s.cache.Counters()
	st.Cache.Entries = s.cache.Entries()
	st.Queue.Running, st.Queue.Queued = s.adm.depth()
	st.Queue.Concurrency, st.Queue.QueueCapacity = s.adm.capacities()
	st.PatternsTried = m.patternsTried.Load()
	st.Memo.Hits = m.memoHits.Load()
	st.Memo.Misses = m.memoMisses.Load()
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	if s.resultCache != nil {
		rc := &ResultCacheSnapshot{
			MemHits:     m.rcMemHits.Load(),
			DiskHits:    m.rcDiskHits.Load(),
			Misses:      m.rcMisses.Load(),
			Stores:      m.rcStores.Load(),
			StoreErrors: m.rcStoreErrors.Load(),
		}
		rc.Entries, rc.Bytes, rc.MaxBytes = s.resultCache.stats()
		st.ResultCache = rc
	}

	st.PhaseMillis = make(map[string]float64, numPhases)
	for p, name := range phaseNames {
		st.PhaseMillis[name] = millis(time.Duration(m.phases[p].Load()))
	}
	st.Libraries = make(map[string]LibrarySnapshot)
	m.mu.Lock()
	for name, lm := range m.perLib {
		lm.mu.Lock()
		ls := LibrarySnapshot{Requests: lm.requests, PatternsTried: lm.patternsTried,
			latency: lm.latency.clone(), patterns: lm.patterns.clone()}
		lm.mu.Unlock()
		ls.P50Millis = roundMillis(ls.latency.quantile(0.50) * 1e3)
		ls.P99Millis = roundMillis(ls.latency.quantile(0.99) * 1e3)
		st.Libraries[name] = ls
	}
	m.mu.Unlock()

	st.Build = buildInfo()
	st.Runtime = obs.ReadRuntimeSample()
	return st
}

// roundMillis trims interpolation noise to microsecond precision.
func roundMillis(ms float64) float64 { return math.Round(ms*1e3) / 1e3 }
