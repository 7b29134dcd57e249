package main

import (
	"fmt"
	"sort"
	"time"
)

// The report side of the harness: tallying outcomes, computing latency
// quantiles over the recorded samples, and judging the run against the
// SLO targets. Kept free of HTTP so the arithmetic is unit-testable.

// SLO holds the pass/fail targets. Zero values disable a check, except
// MaxShedRate where the disabled sentinel is a negative value (a run
// may legitimately demand "no shedding at all", i.e. 0).
type SLO struct {
	// P50Millis / P99Millis bound the sync /map latency quantiles.
	P50Millis float64 `json:"p50_ms,omitempty"`
	P99Millis float64 `json:"p99_ms,omitempty"`
	// MaxShedRate bounds the fraction of operations shed with 429
	// (sync requests and job submissions combined). Negative disables.
	MaxShedRate float64 `json:"max_shed_rate,omitempty"`
	// MinJobsPerSec bounds completed-job throughput from below.
	MinJobsPerSec float64 `json:"min_jobs_per_sec,omitempty"`
	// MinOKRate bounds the fraction of attempted mappings that
	// succeeded: sync requests (excluding sheds, which MaxShedRate
	// governs) and the items of submitted jobs together.
	MinOKRate float64 `json:"min_ok_rate,omitempty"`
	// MinHitRate bounds the result-cache hit rate (hit-mem + hit-disk
	// over successful sync requests) from below. 0 disables.
	MinHitRate float64 `json:"min_hit_rate,omitempty"`
	// MinHitSpeedup demands the miss-path p99 be at least this many
	// times the hit-path p99 — the cache must actually buy latency, not
	// just report hits. 0 disables.
	MinHitSpeedup float64 `json:"min_hit_speedup,omitempty"`
}

// Report is the JSON document loadgen writes at the end of a run.
type Report struct {
	Target          string  `json:"target"`
	Seed            int64   `json:"seed"`
	RPS             float64 `json:"rps"`
	DurationSeconds float64 `json:"duration_s"`

	Sync struct {
		Sent      int     `json:"sent"`
		OK        int     `json:"ok"`
		Shed      int     `json:"shed"`
		Failed    int     `json:"failed"`
		Supergate int     `json:"supergate"`
		SGHits    int     `json:"sg_store_hits"`
		P50Millis float64 `json:"p50_ms"`
		P90Millis float64 `json:"p90_ms"`
		P99Millis float64 `json:"p99_ms"`
		MaxMillis float64 `json:"max_ms"`
		// Result-cache classification of successful requests, from each
		// response's result_cache field. The latency quantiles split by
		// serving path: hit quantiles cover responses replayed from cache
		// memory or disk, miss quantiles cover responses that ran the
		// engine.
		ResultHitMem  int     `json:"result_hit_mem"`
		ResultHitDisk int     `json:"result_hit_disk"`
		ResultMiss    int     `json:"result_miss"`
		HitRate       float64 `json:"hit_rate"`
		HitP50Millis  float64 `json:"hit_p50_ms"`
		HitP99Millis  float64 `json:"hit_p99_ms"`
		MissP50Millis float64 `json:"miss_p50_ms"`
		MissP99Millis float64 `json:"miss_p99_ms"`
	} `json:"sync"`

	Jobs struct {
		Submitted  int     `json:"submitted"`
		Done       int     `json:"done"`
		Failed     int     `json:"failed"`
		Shed       int     `json:"shed"`
		Items      int     `json:"items"`
		ItemsOK    int     `json:"items_ok"`
		PerSecond  float64 `json:"per_second"`
		StreamRecs int     `json:"stream_records"`
		// ResponseBytes sums the response_bytes field of every consumed
		// NDJSON record: uncompressed per-item payload volume (compare
		// against wire bytes for the stream's gzip ratio).
		ResponseBytes int64 `json:"response_bytes"`
	} `json:"jobs"`

	ShedRate float64 `json:"shed_rate"`
	// OKRate is (sync OK + job items OK) / (sync sent - sync shed + job
	// items): every attempted mapping, whichever endpoint carried it.
	OKRate float64 `json:"ok_rate"`

	SLO      SLO      `json:"slo"`
	Breaches []string `json:"breaches,omitempty"`
	Pass     bool     `json:"pass"`
}

// quantile returns the q-quantile (0 <= q <= 1) of the samples by
// linear interpolation between closest ranks; it sorts a copy.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// counters is what the traffic driver accumulates while the run is in
// flight (behind its own mutex; this struct is the plain data).
type counters struct {
	syncSent, syncOK, syncShed, syncFailed int
	syncSG, syncSGStoreHits                int
	syncLatencyMillis                      []float64

	// Result-cache classification: per-tier counts plus the latency
	// samples split by serving path (hit = replayed from cache, miss =
	// ran the engine).
	syncHitMem, syncHitDisk, syncMiss   int
	hitLatencyMillis, missLatencyMillis []float64

	jobsSubmitted, jobsDone, jobsFailed, jobsShed int
	jobItems, jobItemsOK, streamRecords           int
	jobRespBytes                                  int64
}

// buildReport assembles the run report from the raw counters.
func buildReport(target string, seed int64, rps float64, elapsed time.Duration, c *counters, slo SLO) Report {
	var r Report
	r.Target = target
	r.Seed = seed
	r.RPS = rps
	r.DurationSeconds = elapsed.Seconds()

	r.Sync.Sent = c.syncSent
	r.Sync.OK = c.syncOK
	r.Sync.Shed = c.syncShed
	r.Sync.Failed = c.syncFailed
	r.Sync.Supergate = c.syncSG
	r.Sync.SGHits = c.syncSGStoreHits
	r.Sync.P50Millis = quantile(c.syncLatencyMillis, 0.50)
	r.Sync.P90Millis = quantile(c.syncLatencyMillis, 0.90)
	r.Sync.P99Millis = quantile(c.syncLatencyMillis, 0.99)
	r.Sync.MaxMillis = quantile(c.syncLatencyMillis, 1)
	r.Sync.ResultHitMem = c.syncHitMem
	r.Sync.ResultHitDisk = c.syncHitDisk
	r.Sync.ResultMiss = c.syncMiss
	if c.syncOK > 0 {
		r.Sync.HitRate = float64(c.syncHitMem+c.syncHitDisk) / float64(c.syncOK)
	}
	r.Sync.HitP50Millis = quantile(c.hitLatencyMillis, 0.50)
	r.Sync.HitP99Millis = quantile(c.hitLatencyMillis, 0.99)
	r.Sync.MissP50Millis = quantile(c.missLatencyMillis, 0.50)
	r.Sync.MissP99Millis = quantile(c.missLatencyMillis, 0.99)

	r.Jobs.Submitted = c.jobsSubmitted
	r.Jobs.Done = c.jobsDone
	r.Jobs.Failed = c.jobsFailed
	r.Jobs.Shed = c.jobsShed
	r.Jobs.Items = c.jobItems
	r.Jobs.ItemsOK = c.jobItemsOK
	r.Jobs.StreamRecs = c.streamRecords
	r.Jobs.ResponseBytes = c.jobRespBytes
	if elapsed > 0 {
		r.Jobs.PerSecond = float64(c.jobsDone) / elapsed.Seconds()
	}

	ops := c.syncSent + c.jobsSubmitted + c.jobsShed
	if ops > 0 {
		r.ShedRate = float64(c.syncShed+c.jobsShed) / float64(ops)
	}
	attempted := c.syncSent - c.syncShed + c.jobItems
	if attempted > 0 {
		r.OKRate = float64(c.syncOK+c.jobItemsOK) / float64(attempted)
	}

	r.SLO = slo
	r.Breaches = slo.breaches(&r)
	r.Pass = len(r.Breaches) == 0
	return r
}

// breaches lists every SLO target the run missed (empty means pass).
func (s SLO) breaches(r *Report) []string {
	var out []string
	if s.P50Millis > 0 && r.Sync.Sent > r.Sync.Shed && r.Sync.P50Millis > s.P50Millis {
		out = append(out, fmt.Sprintf("sync p50 %.3fms exceeds target %.3fms", r.Sync.P50Millis, s.P50Millis))
	}
	if s.P99Millis > 0 && r.Sync.Sent > r.Sync.Shed && r.Sync.P99Millis > s.P99Millis {
		out = append(out, fmt.Sprintf("sync p99 %.3fms exceeds target %.3fms", r.Sync.P99Millis, s.P99Millis))
	}
	if s.MaxShedRate >= 0 && r.ShedRate > s.MaxShedRate {
		out = append(out, fmt.Sprintf("shed rate %.4f exceeds target %.4f", r.ShedRate, s.MaxShedRate))
	}
	if s.MinJobsPerSec > 0 && r.Jobs.PerSecond < s.MinJobsPerSec {
		out = append(out, fmt.Sprintf("job throughput %.3f/s below target %.3f/s", r.Jobs.PerSecond, s.MinJobsPerSec))
	}
	if s.MinOKRate > 0 && r.OKRate < s.MinOKRate {
		out = append(out, fmt.Sprintf("ok rate %.4f below target %.4f", r.OKRate, s.MinOKRate))
	}
	if s.MinHitRate > 0 && r.Sync.OK > 0 && r.Sync.HitRate < s.MinHitRate {
		out = append(out, fmt.Sprintf("result-cache hit rate %.4f below target %.4f", r.Sync.HitRate, s.MinHitRate))
	}
	if s.MinHitSpeedup > 0 {
		switch {
		case r.Sync.ResultMiss == 0 || r.Sync.ResultHitMem+r.Sync.ResultHitDisk == 0:
			out = append(out, "hit-speedup gate set but the run lacks both hit-path and miss-path samples")
		case r.Sync.HitP99Millis <= 0:
			// A hit path too fast to measure trivially satisfies any
			// speedup target; not a breach.
		case r.Sync.MissP99Millis/r.Sync.HitP99Millis < s.MinHitSpeedup:
			out = append(out, fmt.Sprintf("hit-path p99 %.3fms is only %.2fx under miss-path p99 %.3fms, want %.2fx",
				r.Sync.HitP99Millis, r.Sync.MissP99Millis/r.Sync.HitP99Millis, r.Sync.MissP99Millis, s.MinHitSpeedup))
		}
	}
	return out
}
