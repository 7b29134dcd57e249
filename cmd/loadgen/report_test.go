package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestQuantile(t *testing.T) {
	if q := quantile(nil, 0.5); q != 0 {
		t.Errorf("empty quantile = %v, want 0", q)
	}
	one := []float64{42}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := quantile(one, q); got != 42 {
			t.Errorf("quantile(one, %v) = %v", q, got)
		}
	}
	// 1..100: p50 interpolates to 50.5, p99 to 99.01, extremes clamp.
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(100 - i) // reversed: quantile must sort a copy
	}
	if got := quantile(s, 0.5); math.Abs(got-50.5) > 1e-9 {
		t.Errorf("p50 = %v, want 50.5", got)
	}
	if got := quantile(s, 0.99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 = %v, want 99.01", got)
	}
	if got := quantile(s, 0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := quantile(s, 1); got != 100 {
		t.Errorf("p100 = %v, want 100", got)
	}
	if s[0] != 100 {
		t.Error("quantile mutated its input")
	}
}

func TestBuildReportAndSLO(t *testing.T) {
	c := &counters{
		syncSent: 10, syncOK: 8, syncShed: 1, syncFailed: 1,
		syncLatencyMillis: []float64{1, 2, 3, 4, 5, 6, 7, 8},
		jobsSubmitted:     4, jobsDone: 3, jobsFailed: 1,
		jobItems: 16, jobItemsOK: 12, streamRecords: 16,
	}
	slo := SLO{P99Millis: 100, MaxShedRate: 0.5, MinJobsPerSec: 0.1, MinOKRate: 0.5}
	r := buildReport("http://x", 7, 20, 10*time.Second, c, slo)
	if !r.Pass || len(r.Breaches) != 0 {
		t.Fatalf("healthy run failed SLO: %v", r.Breaches)
	}
	if r.Jobs.PerSecond != 0.3 {
		t.Errorf("job throughput = %v, want 0.3", r.Jobs.PerSecond)
	}
	// shed rate: 1 shed of (10 sync + 4 jobs submitted + 0 job sheds).
	if want := 1.0 / 14.0; math.Abs(r.ShedRate-want) > 1e-9 {
		t.Errorf("shed rate = %v, want %v", r.ShedRate, want)
	}
	// ok rate excludes sheds and counts job items: (8 sync + 12 items)
	// of (9 sync attempted + 16 items).
	if want := 20.0 / 25.0; math.Abs(r.OKRate-want) > 1e-9 {
		t.Errorf("ok rate = %v, want %v", r.OKRate, want)
	}

	// Each target breached alone is reported.
	tight := SLO{P50Millis: 0.5, P99Millis: 1, MaxShedRate: 0, MinJobsPerSec: 100, MinOKRate: 0.999}
	r2 := buildReport("http://x", 7, 20, 10*time.Second, c, tight)
	if r2.Pass {
		t.Fatal("tight SLO passed")
	}
	if len(r2.Breaches) != 5 {
		t.Fatalf("breaches = %v, want all 5 targets", r2.Breaches)
	}
	for _, want := range []string{"p50", "p99", "shed rate", "job throughput", "ok rate"} {
		found := false
		for _, b := range r2.Breaches {
			if strings.Contains(b, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no breach mentions %q: %v", want, r2.Breaches)
		}
	}

	// Disabled checks (zero / negative sentinels) never fire.
	r3 := buildReport("http://x", 7, 20, 10*time.Second, c, SLO{MaxShedRate: -1})
	if !r3.Pass {
		t.Fatalf("disabled SLO produced breaches: %v", r3.Breaches)
	}
	// A run that shed everything must not judge latency quantiles.
	allShed := &counters{syncSent: 5, syncShed: 5}
	r4 := buildReport("http://x", 1, 5, time.Second, allShed, SLO{P99Millis: 1, MaxShedRate: -1})
	for _, b := range r4.Breaches {
		if strings.Contains(b, "p99") {
			t.Errorf("latency judged on all-shed run: %v", b)
		}
	}
}

func TestResultCacheGates(t *testing.T) {
	// 8 OK requests: 4 hits across the two tiers, 4 misses, with the
	// hit path an order of magnitude faster than the miss path. The hit
	// rate sits exactly on the 0.5 floor, which passes.
	c := &counters{
		syncSent: 8, syncOK: 8,
		syncHitMem: 3, syncHitDisk: 1, syncMiss: 4,
		syncLatencyMillis: []float64{1, 1, 1, 2, 30, 40, 50, 60},
		hitLatencyMillis:  []float64{1, 1, 1, 2},
		missLatencyMillis: []float64{30, 40, 50, 60},
	}
	slo := SLO{MaxShedRate: -1, MinHitRate: 0.5, MinHitSpeedup: 10}
	r := buildReport("http://x", 1, 5, time.Second, c, slo)
	if !r.Pass {
		t.Fatalf("healthy cached run failed: %v", r.Breaches)
	}
	if want := 4.0 / 8.0; math.Abs(r.Sync.HitRate-want) > 1e-9 {
		t.Errorf("hit rate = %v, want %v", r.Sync.HitRate, want)
	}
	if r.Sync.ResultHitMem != 3 || r.Sync.ResultHitDisk != 1 || r.Sync.ResultMiss != 4 {
		t.Errorf("tier counts = %d/%d/%d, want 3/1/4",
			r.Sync.ResultHitMem, r.Sync.ResultHitDisk, r.Sync.ResultMiss)
	}
	if r.Sync.HitP99Millis >= r.Sync.MissP50Millis {
		t.Errorf("hit p99 %v not below miss p50 %v", r.Sync.HitP99Millis, r.Sync.MissP50Millis)
	}

	// Hit rate below the floor breaches.
	r2 := buildReport("http://x", 1, 5, time.Second, c, SLO{MaxShedRate: -1, MinHitRate: 0.9})
	if r2.Pass || !strings.Contains(strings.Join(r2.Breaches, ";"), "hit rate") {
		t.Fatalf("hit-rate floor not enforced: pass=%v %v", r2.Pass, r2.Breaches)
	}

	// Speedup below the floor breaches: miss p99 / hit p99 ≈ 59.8/2.
	r3 := buildReport("http://x", 1, 5, time.Second, c, SLO{MaxShedRate: -1, MinHitSpeedup: 100})
	if r3.Pass || !strings.Contains(strings.Join(r3.Breaches, ";"), "hit-path p99") {
		t.Fatalf("speedup floor not enforced: pass=%v %v", r3.Pass, r3.Breaches)
	}

	// A speedup gate on a run with no hits (or no misses) must fail
	// loudly, not silently pass on missing samples.
	noHits := &counters{syncSent: 3, syncOK: 3, syncMiss: 3,
		syncLatencyMillis: []float64{40, 50, 60}, missLatencyMillis: []float64{40, 50, 60}}
	r4 := buildReport("http://x", 1, 5, time.Second, noHits, SLO{MaxShedRate: -1, MinHitSpeedup: 10})
	if r4.Pass {
		t.Fatal("speedup gate passed with zero hit-path samples")
	}

	// A sub-measurable hit path (p99 rounds to 0) satisfies any target.
	instant := &counters{
		syncSent: 4, syncOK: 4, syncHitMem: 2, syncMiss: 2,
		syncLatencyMillis: []float64{0, 0, 40, 50},
		hitLatencyMillis:  []float64{0, 0},
		missLatencyMillis: []float64{40, 50},
	}
	r5 := buildReport("http://x", 1, 5, time.Second, instant, SLO{MaxShedRate: -1, MinHitSpeedup: 1000})
	if !r5.Pass {
		t.Fatalf("immeasurably fast hit path breached speedup gate: %v", r5.Breaches)
	}

	// Disabled gates (zero values) never fire, even hitless.
	r6 := buildReport("http://x", 1, 5, time.Second, noHits, SLO{MaxShedRate: -1})
	if !r6.Pass {
		t.Fatalf("disabled cache gates produced breaches: %v", r6.Breaches)
	}
}

func TestOKRateCountsJobItems(t *testing.T) {
	// Every sync request mapped, but one job item failed (say, a 504 on
	// its deadline). Counting sync requests alone would read 10/10; the
	// failed item must pull the rate under a 0.99 floor: 12 of 13.
	c := &counters{
		syncSent: 10, syncOK: 10, syncLatencyMillis: []float64{1, 2},
		jobsSubmitted: 1, jobsFailed: 1, jobItems: 3, jobItemsOK: 2,
	}
	r := buildReport("http://x", 1, 5, time.Second, c, SLO{MaxShedRate: -1, MinOKRate: 0.99})
	if want := 12.0 / 13.0; math.Abs(r.OKRate-want) > 1e-9 {
		t.Errorf("ok rate = %v, want %v", r.OKRate, want)
	}
	if r.Pass || !strings.Contains(strings.Join(r.Breaches, ";"), "ok rate") {
		t.Fatalf("failed job item passed the ok-rate floor: pass=%v %v", r.Pass, r.Breaches)
	}
}
