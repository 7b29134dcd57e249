package main

// Million-gate family measurement: generate a streaming benchmark
// family (mult<N>, alumesh<WxH>) to disk, ingest it through the
// streaming BLIF reader, map it, and record the scale columns —
// ingest throughput, allocations, peak heap — alongside the usual
// delay/cells. Results land in the report's "families" section and
// are compared against the committed pointer-representation baselines
// in testdata/baseline_pointer_<family>.json.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// FamilyRun is one streamed-family measurement. The JSON schema
// matches the committed pointer baselines so the two are directly
// diffable.
type FamilyRun struct {
	Family      string `json:"family"`
	Impl        string `json:"impl"`
	Library     string `json:"library"`
	Parallelism int    `json:"parallelism"`
	// BlifBytes is the generated benchmark's size; IngestMBps is
	// BlifBytes over the ingest wall clock.
	BlifBytes    int64   `json:"blif_bytes"`
	SubjectGates int     `json:"subject_gates"`
	IngestNanos  int64   `json:"ingest_ns"`
	IngestMBps   float64 `json:"ingest_mbps"`
	// IngestAllocs counts heap allocations (runtime mallocs) during
	// ingest: about one per declared signal (its name), a small
	// fraction of one per subject node.
	IngestAllocs uint64 `json:"ingest_allocs"`
	MapNanos     int64  `json:"map_ns"`
	// EmitNanos is the mapping run's emission phase (part of MapNanos);
	// RenderNanos is WriteBLIF of the mapped netlist, timed after the
	// heap sampler stops and outside TotalNanos (ingest plus map), so
	// both stay comparable with the pointer baselines.
	EmitNanos   int64 `json:"emit_ns"`
	RenderNanos int64 `json:"render_ns"`
	TotalNanos  int64 `json:"total_ns"`
	// PeakHeapBytes is the maximum live heap observed by a 20ms
	// ReadMemStats sampler across ingest and mapping.
	PeakHeapBytes uint64  `json:"peak_heap_bytes"`
	Delay         float64 `json:"delay"`
	Cells         int     `json:"cells"`
	// Comparison columns, filled when a committed pointer baseline for
	// the family exists.
	BaselineTotalNanos     int64   `json:"baseline_total_ns,omitempty"`
	BaselinePeakHeapBytes  uint64  `json:"baseline_peak_heap_bytes,omitempty"`
	SpeedupVsPointer       float64 `json:"speedup_vs_pointer,omitempty"`
	HeapReductionVsPointer float64 `json:"heap_reduction_vs_pointer,omitempty"`
}

// heapSampler polls runtime.ReadMemStats on a fixed cadence and keeps
// the high-water HeapAlloc mark.
type heapSampler struct {
	mu   sync.Mutex
	peak uint64
	done chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(interval time.Duration) *heapSampler {
	s := &heapSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			s.sample()
			select {
			case <-t.C:
			case <-s.done:
				return
			}
		}
	}()
	return s
}

func (s *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mu.Lock()
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
	s.mu.Unlock()
}

// stop takes one final sample and returns the high-water mark.
func (s *heapSampler) stop() uint64 {
	close(s.done)
	s.wg.Wait()
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.peak
}

// countWriter counts bytes on their way to the underlying writer.
type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// measureFamily generates the named streaming family to a temporary
// file, ingests and maps it once, and returns the measurement. Big
// families run for tens of seconds; a single timed run is
// representative at that scale.
func measureFamily(name string, parallel int, baselineDir string) (*FamilyRun, error) {
	stream, ok := bench.StreamFamily(name)
	if !ok {
		return nil, fmt.Errorf("unknown streaming family %q (want mult<N> or alumesh<WxH>)", name)
	}
	f, err := os.CreateTemp("", "benchmap-"+name+"-*.blif")
	if err != nil {
		return nil, err
	}
	path := f.Name()
	defer os.Remove(path)
	cw := &countWriter{w: f}
	if err := stream(cw); err != nil {
		f.Close()
		return nil, fmt.Errorf("generate %s: %w", name, err)
	}
	if err := f.Close(); err != nil {
		return nil, err
	}

	lc := libs()[0] // lib2 with intrinsic delay, like the baselines
	cl, err := dagcover.CompileLibrary(lc.lib)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", lc.name, err)
	}

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler(20 * time.Millisecond)

	t0 := time.Now()
	g, err := dagcover.ReadSubjectBLIFFile(path)
	if err != nil {
		sampler.stop()
		return nil, fmt.Errorf("ingest %s: %w", name, err)
	}
	ingest := time.Since(t0)
	var afterIngest runtime.MemStats
	runtime.ReadMemStats(&afterIngest)

	t1 := time.Now()
	res, err := dagcover.Map(context.Background(), dagcover.Input{Subject: g},
		dagcover.MapOptions{Library: cl, Delay: lc.delay, Parallelism: parallel})
	if err != nil {
		sampler.stop()
		return nil, fmt.Errorf("map %s: %w", name, err)
	}
	mapped := time.Since(t1)
	peak := sampler.stop()
	t2 := time.Now()
	if err := res.Netlist.WriteBLIF(io.Discard); err != nil {
		return nil, fmt.Errorf("render %s: %w", name, err)
	}
	render := time.Since(t2)

	run := &FamilyRun{
		Family:        name,
		Impl:          "soa",
		Library:       lc.name,
		Parallelism:   parallel,
		BlifBytes:     cw.n,
		SubjectGates:  res.SubjectNodes,
		IngestNanos:   ingest.Nanoseconds(),
		IngestAllocs:  afterIngest.Mallocs - before.Mallocs,
		MapNanos:      mapped.Nanoseconds(),
		EmitNanos:     int64(res.Phases.EmitMillis * 1e6),
		RenderNanos:   render.Nanoseconds(),
		TotalNanos:    ingest.Nanoseconds() + mapped.Nanoseconds(),
		PeakHeapBytes: peak,
		Delay:         res.Delay,
		Cells:         res.Cells,
	}
	if s := ingest.Seconds(); s > 0 {
		run.IngestMBps = float64(cw.n) / 1e6 / s
	}
	attachBaseline(run, baselineDir)
	return run, nil
}

// attachBaseline fills the comparison columns from the committed
// pointer-representation baseline, when one exists for the family.
func attachBaseline(run *FamilyRun, dir string) {
	if dir == "" {
		return
	}
	doc, err := os.ReadFile(filepath.Join(dir, "baseline_pointer_"+run.Family+".json"))
	if err != nil {
		return
	}
	var base FamilyRun
	if err := json.Unmarshal(doc, &base); err != nil {
		return
	}
	run.BaselineTotalNanos = base.TotalNanos
	run.BaselinePeakHeapBytes = base.PeakHeapBytes
	if run.TotalNanos > 0 {
		run.SpeedupVsPointer = float64(base.TotalNanos) / float64(run.TotalNanos)
	}
	if run.PeakHeapBytes > 0 {
		run.HeapReductionVsPointer = float64(base.PeakHeapBytes) / float64(run.PeakHeapBytes)
	}
}

// printFamily renders one family measurement line.
func printFamily(fr *FamilyRun) {
	fmt.Printf("%-14s | %7.1f MB blif | %8d gates | ingest %6.2fs (%5.1f MB/s, %d allocs) | map %7.2fs (emit %5.2fs) | render %5.2fs | peak heap %6.1f MB",
		fr.Family, float64(fr.BlifBytes)/1e6, fr.SubjectGates,
		float64(fr.IngestNanos)/1e9, fr.IngestMBps, fr.IngestAllocs,
		float64(fr.MapNanos)/1e9, float64(fr.EmitNanos)/1e9, float64(fr.RenderNanos)/1e9,
		float64(fr.PeakHeapBytes)/1e6)
	if fr.SpeedupVsPointer > 0 {
		fmt.Printf(" | vs pointer: %.2fx faster, %.2fx less heap", fr.SpeedupVsPointer, fr.HeapReductionVsPointer)
	}
	fmt.Println()
}
