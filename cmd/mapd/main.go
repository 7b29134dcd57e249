// Command mapd serves technology mapping over HTTP/JSON.
//
// Usage:
//
//	mapd -addr :8080 -concurrency 8 -queue 32 -timeout 60s
//
// Endpoints:
//
//	POST   /map               map a BLIF netlist (JSON request, see internal/service)
//	POST   /jobs              submit an async batch job (many BLIFs, one library)
//	GET    /jobs/{id}         poll job status (queued → running i/N → done/failed/cancelled)
//	GET    /jobs/{id}/result  stream per-netlist results as NDJSON, incrementally
//	DELETE /jobs/{id}         cancel a job; unfinished items settle as 499
//	GET    /healthz           liveness probe
//	GET    /stats             request, job, cache, queue and per-library latency counters
//	GET    /metrics           the same snapshot as /stats, as Prometheus text
//	GET    /debug/events      recent requests as wide events, newest first (?result=, ?kind=, ?limit=)
//
// With -debug-addr, a second listener serves net/http/pprof under
// /debug/pprof/ — kept off the public address so profiling endpoints
// are never exposed to mapping clients. Requests are logged as
// structured records (log/slog) carrying a per-request trace id that
// is also returned in the X-Trace-ID header; requests slower than
// -slow-ms are promoted to warnings with their per-phase breakdown.
//
// A mapping request names a built-in library (lib2, 44-1, 44-3),
// uploads genlib text inline, or asks for K-LUT mapping:
//
//	curl -s localhost:8080/map -d '{"blif":".model c\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n","library":"44-1"}'
//
// With -store-dir, expanded supergate libraries are kept in a
// persistent content-addressed artifact store shared across processes
// and restarts: the first request for a (library content, bounds)
// pair generates and publishes the artifact, every later request —
// from this or any other mapd or techmap on the machine — loads it
// instead of re-enumerating.
//
// mapd shuts down gracefully on SIGINT/SIGTERM: in-flight requests
// finish (up to -drain) before the listener closes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dagcover"
	"dagcover/internal/obs"
	"dagcover/internal/service"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		concurrency = flag.Int("concurrency", 0, "max simultaneous mapping runs (0 = NumCPU)")
		queue       = flag.Int("queue", 0, "max requests waiting for a run slot (0 = 4x concurrency, -1 = none); excess gets 429")
		timeout     = flag.Duration("timeout", 60*time.Second, "default per-request mapping deadline")
		maxTimeout  = flag.Duration("maxtimeout", 5*time.Minute, "cap on client-requested deadlines")
		parallel    = flag.Int("parallel", 1, "labeling workers per request (1 = serial; concurrency across requests usually saturates the pool)")
		maxBytes    = flag.Int64("maxbytes", 32<<20, "max request body size in bytes")
		cacheSize   = flag.Int("cache", 128, "max compiled libraries kept in memory")
		jobsMax     = flag.Int("jobs-max", 512, "max resident async jobs; at capacity the oldest finished job is evicted, and 429 when all are active")
		jobTTL      = flag.Duration("job-ttl", 15*time.Minute, "how long finished async jobs stay pollable")
		batchMax    = flag.Int("batch-max", 64, "max netlists per batch job")
		drain       = flag.Duration("drain", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		debugAddr   = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (empty = disabled)")
		slowMillis  = flag.Int("slow-ms", 0, "log requests slower than this many milliseconds at WARN (0 = disabled)")
		storeDir    = flag.String("store-dir", "", "persistent artifact store directory, shared across processes and restarts (empty = disabled)")
		storeMaxMB  = flag.Int64("store-max-mb", 1024, "artifact store disk budget in MiB; the LRU GC evicts past it")
		resultCache = flag.Bool("result-cache", true, "cache whole mapping results keyed by subject-graph digest, library and options (with -store-dir they also persist across restarts)")
		resultMB    = flag.Int64("result-cache-mb", 64, "in-memory result cache budget in MiB")

		diagDir      = flag.String("diag-dir", "", "publish a diagnostics bundle (trace, goroutine dump, wide event, runtime sample) here for every slow or SLO-violating request (empty = disabled)")
		diagMaxMB    = flag.Int64("diag-max-mb", 64, "diagnostics directory disk budget in MiB; oldest bundles are evicted past it")
		diagInterval = flag.Duration("diag-min-interval", 10*time.Second, "minimum spacing between diagnostics captures; breaches inside it are counted as dropped (0 = unlimited)")
		sloP99Millis = flag.Int("slo-p99-ms", 0, "latency SLO target in milliseconds; served requests over it burn error budget and trigger capture (0 = disabled)")
		sloGoal      = flag.Float64("slo-goal", 0.99, "availability goal behind the burn-rate windows (fraction of good requests)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: mapd [flags]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	var st *dagcover.ArtifactStore
	if *storeDir != "" {
		var err error
		st, err = dagcover.OpenArtifactStore(*storeDir, dagcover.ArtifactStoreOptions{MaxBytes: *storeMaxMB << 20})
		if err != nil {
			log.Fatalf("mapd: opening artifact store: %v", err)
		}
		log.Printf("mapd: artifact store at %s (budget %d MiB)", *storeDir, *storeMaxMB)
	}
	var diag *obs.DiagRecorder
	if *diagDir != "" {
		var err error
		diag, err = obs.NewDiagRecorder(*diagDir, obs.DiagOptions{
			MaxBytes:    *diagMaxMB << 20,
			MinInterval: *diagInterval,
		})
		if err != nil {
			log.Fatalf("mapd: opening diagnostics dir: %v", err)
		}
		log.Printf("mapd: slow-request capture into %s (budget %d MiB, min interval %v)", *diagDir, *diagMaxMB, *diagInterval)
	}
	resultBytes := *resultMB << 20
	if !*resultCache || resultBytes <= 0 {
		resultBytes = -1
	}
	svc := service.New(service.Config{
		Concurrency:      *concurrency,
		QueueDepth:       *queue,
		DefaultTimeout:   *timeout,
		MaxTimeout:       *maxTimeout,
		Parallelism:      *parallel,
		MaxRequestBytes:  *maxBytes,
		CacheEntries:     *cacheSize,
		MaxJobs:          *jobsMax,
		JobTTL:           *jobTTL,
		MaxBatchItems:    *batchMax,
		Logger:           logger,
		SlowRequest:      time.Duration(*slowMillis) * time.Millisecond,
		Store:            st,
		Diag:             diag,
		SLOLatency:       time.Duration(*sloP99Millis) * time.Millisecond,
		SLOGoal:          *sloGoal,
		ResultCacheBytes: resultBytes,
	})
	defer svc.Close()
	srv := &http.Server{
		Addr:              *addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// pprof rides a second listener: the DefaultServeMux (which the
	// net/http/pprof import populates) is never attached to the public
	// address, so /debug/pprof/ stays private to operators.
	var debugSrv *http.Server
	if *debugAddr != "" {
		debugSrv = &http.Server{
			Addr:              *debugAddr,
			Handler:           http.DefaultServeMux,
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			log.Printf("mapd: pprof on %s/debug/pprof/", *debugAddr)
			if err := debugSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("mapd: pprof listener: %v", err)
			}
		}()
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("mapd: listening on %s", *addr)
		errc <- srv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		log.Fatalf("mapd: %v", err)
	case <-ctx.Done():
	}
	stop()
	log.Printf("mapd: shutting down (draining up to %v)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("mapd: forced shutdown: %v", err)
		srv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("mapd: %v", err)
	}
}
