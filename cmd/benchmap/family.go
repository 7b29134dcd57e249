package main

// Million-gate family guard: generate a streaming benchmark family
// (mult<N>, alumesh<WxH>) to disk, ingest it through the streaming
// BLIF reader and map it, recording the size and memory columns —
// BLIF bytes, subject gates, ingest allocations and peak heap —
// beside the mapped delay and cells. -maxheap turns the peak into a
// gate.

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"
	"time"

	"dagcover"
	"dagcover/internal/bench"
)

// FamilyRun is one streamed-family run.
type FamilyRun struct {
	Family       string
	Library      string
	BlifBytes    int64
	SubjectGates int
	// IngestAllocs counts heap allocations (runtime mallocs) during
	// ingest: about one per declared signal (its name), a small
	// fraction of one per subject node.
	IngestAllocs uint64
	// PeakHeapBytes is the maximum live heap observed by a 20ms
	// ReadMemStats sampler across ingest and mapping.
	PeakHeapBytes uint64
	Delay         float64
	Cells         int
}

// heapSampler polls runtime.ReadMemStats on a fixed cadence and keeps
// the high-water HeapAlloc mark.
type heapSampler struct {
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

// sample raises peak to the live heap. One goroutine at a time calls
// it: the poller, then stop once the poller has exited.
func (s *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > s.peak {
		s.peak = ms.HeapAlloc
	}
}

// stop ends the poller, takes one final sample and returns the
// high-water mark.
func (s *heapSampler) stop() uint64 {
	close(s.done)
	s.wg.Wait()
	s.sample()
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
// file, then ingests and maps it once.
func measureFamily(name string) (*FamilyRun, error) {
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

	lc := libs()[0] // lib2 with intrinsic delay
	cl, err := dagcover.CompileLibrary(lc.lib)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", lc.name, err)
	}

	runtime.GC()
	var before, afterIngest runtime.MemStats
	runtime.ReadMemStats(&before)
	sampler := startHeapSampler(20 * time.Millisecond)
	g, err := dagcover.ReadSubjectBLIFFile(path)
	if err != nil {
		sampler.stop()
		return nil, fmt.Errorf("ingest %s: %w", name, err)
	}
	runtime.ReadMemStats(&afterIngest)
	res, err := dagcover.Map(context.Background(), dagcover.Input{Subject: g},
		dagcover.MapOptions{Library: cl, Delay: lc.delay})
	peak := sampler.stop()
	if err != nil {
		return nil, fmt.Errorf("map %s: %w", name, err)
	}
	return &FamilyRun{
		Family:        name,
		Library:       lc.name,
		BlifBytes:     cw.n,
		SubjectGates:  res.SubjectNodes,
		IngestAllocs:  afterIngest.Mallocs - before.Mallocs,
		PeakHeapBytes: peak,
		Delay:         res.Delay,
		Cells:         res.Cells,
	}, nil
}

// print renders one family line.
func (fr *FamilyRun) print() {
	fmt.Printf("%-14s | %s | %7.1f MB blif | %8d gates | %d ingest allocs | peak heap %6.1f MB | delay %.2f, %d cells\n",
		fr.Family, fr.Library, float64(fr.BlifBytes)/1e6, fr.SubjectGates, fr.IngestAllocs,
		float64(fr.PeakHeapBytes)/1e6, fr.Delay, fr.Cells)
}
