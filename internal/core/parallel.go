package core

import (
	"fmt"
	"math"
	"sync"
	"time"

	"dagcover/internal/match"
	"dagcover/internal/subject"
)

// Wavefront-parallel labeling. The topological order is partitioned
// into fanin-ready waves: a node's wave is one past the deepest wave
// among its fanins, so every label a match at the node can read —
// including labels reached through choice alternatives — belongs to
// an earlier wave. Nodes of one wave are labeled concurrently by
// workers holding private match.Matcher clones and private Stats;
// stats merge at wave boundaries and choice classes merge as soon as
// the wave containing their last member completes, before any
// consumer runs. Per-node work is identical to the serial loop and
// no cross-node state is shared inside a wave, so the resulting
// labels, stats, and netlist are byte-for-byte identical to a serial
// run for every worker count.

// minParallelWave is the wave size below which fan-out overhead
// outweighs concurrency; smaller waves run on the calling goroutine.
const minParallelWave = 16

// waveLevels assigns each node its fanin-ready wave, merging choice
// classes onto their deepest member so all members share one wave.
// The single ascending-ID pass is sound for the same reason the
// serial label merge is: consumers of any class member appear after
// the class's largest ID (see Map).
func waveLevels(g *subject.Graph, opt Options, classMax []int) ([]int32, int32) {
	nn := g.NumNodes()
	lvl := make([]int32, nn)
	maxLvl := int32(0)
	for i := 0; i < nn; i++ {
		n := subject.Node(i)
		v := int32(0)
		fis, k := g.Fanins(n)
		for fi := 0; fi < k; fi++ {
			if lvl[fis[fi]]+1 > v {
				v = lvl[fis[fi]] + 1
			}
		}
		lvl[i] = v
		if opt.Choices != nil && classMax[i] == i {
			if members := opt.Choices.Members(n); members != nil {
				top := int32(0)
				for _, mm := range members {
					if lvl[mm] > top {
						top = lvl[mm]
					}
				}
				for _, mm := range members {
					lvl[mm] = top
				}
				v = top
			}
		}
		if v > maxLvl {
			maxLvl = v
		}
	}
	return lvl, maxLvl
}

// labelWorker is the per-goroutine labeling state.
type labelWorker struct {
	m       *match.Matcher
	scratch matchScratch
	arena   nodeArena
	stats   Stats
	err     error
}

// labelChunk labels nodes[lo:hi] of one wave. Labels of earlier waves
// are read-only here and each node writes only its own slot, so
// workers never race. On error the worker keeps its first failure
// (the chunk is ascending, so this is its smallest failing node).
func (w *labelWorker) labelChunk(g *subject.Graph, opt Options, labels []Label, waveIdx int32, nodes []subject.Node, lo, hi int) {
	start := time.Now()
	span := opt.Trace.Start("core.label.chunk")
	defer func() {
		w.stats.Phases.Label += time.Since(start)
		span.Arg("wave", waveIdx).Arg("nodes", hi-lo).End()
	}()
	for i, n := range nodes[lo:hi] {
		if i%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				w.err = fmt.Errorf("core: labeling interrupted: %w", err)
				return
			}
		}
		if err := bestMatch(g, w.m, n, nil, opt, labels, math.Inf(1), nil, &w.scratch, &w.stats); err != nil {
			w.err = err
			return
		}
		labels[n] = Label{
			Arrival: w.scratch.arr,
			Pat:     w.scratch.pat,
			Leaves:  w.arena.save(w.scratch.leaves),
			Covered: w.arena.save(w.scratch.covered),
		}
		w.stats.NodesLabeled++
	}
}

// labelParallel is the wavefront counterpart of labelSerial.
func labelParallel(g *subject.Graph, m *match.Matcher, opt Options, res *Result, classMax []int) error {
	lvl, maxLvl := waveLevels(g, opt, classMax)
	nn := g.NumNodes()

	// Bucket nodes by wave, ascending ID within each wave. Wave 0 is
	// exactly the PIs (every gate node has a fanin); label them here.
	counts := make([]int32, maxLvl+1)
	for i := 0; i < nn; i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			res.Labels[i] = Label{Arrival: opt.Arrivals[g.NameOf(n)]}
			continue
		}
		counts[lvl[i]]++
	}
	waves := make([][]subject.Node, maxLvl+1)
	for w := range waves {
		waves[w] = make([]subject.Node, 0, counts[w])
	}
	for i := 0; i < nn; i++ {
		n := subject.Node(i)
		if g.KindOf(n) != subject.PI {
			waves[lvl[i]] = append(waves[lvl[i]], n)
		}
	}
	// Choice classes to merge at each wave boundary: the classes whose
	// last member sits in that wave.
	var merges [][]subject.Node
	if opt.Choices != nil {
		merges = make([][]subject.Node, maxLvl+1)
		for i := 0; i < nn; i++ {
			n := subject.Node(i)
			if g.KindOf(n) != subject.PI && classMax[i] == i {
				if members := opt.Choices.Members(n); members != nil {
					merges[lvl[i]] = append(merges[lvl[i]], n)
				}
			}
		}
	}

	workers := make([]*labelWorker, opt.Parallelism)
	for i := range workers {
		workers[i] = &labelWorker{m: m.Clone()}
	}
	var wg sync.WaitGroup
	for w := int32(1); w <= maxLvl; w++ {
		// Wave-boundary cancellation point: no worker is in flight
		// here, so a cancelled run stops without leaving goroutines
		// writing into res.Labels.
		if err := opt.Ctx.Err(); err != nil {
			drainWorkers(res, workers)
			return fmt.Errorf("core: labeling interrupted: %w", err)
		}
		wave := waves[w]
		if len(wave) < minParallelWave {
			workers[0].labelChunk(g, opt, res.Labels, w, wave, 0, len(wave))
			if workers[0].err != nil {
				return drainWorkers(res, workers)
			}
		} else {
			per := (len(wave) + len(workers) - 1) / len(workers)
			for i := range workers {
				lo := i * per
				if lo >= len(wave) {
					break
				}
				hi := lo + per
				if hi > len(wave) {
					hi = len(wave)
				}
				wg.Add(1)
				go func(wk *labelWorker, lo, hi int) {
					defer wg.Done()
					wk.labelChunk(g, opt, res.Labels, w, wave, lo, hi)
				}(workers[i], lo, hi)
			}
			wg.Wait()
			for _, wk := range workers {
				if wk.err != nil {
					return drainWorkers(res, workers)
				}
			}
		}
		if merges != nil {
			for _, cm := range merges[w] {
				mergeClassLabels(res.Labels, opt.Choices.Members(cm))
			}
		}
	}
	if err := drainWorkers(res, workers); err != nil {
		return err
	}
	for _, wk := range workers {
		res.Stats.MemoEntries += wk.m.MemoEntries()
	}
	// Worker matchers are fresh clones, so their cumulative bucket
	// counts are exactly this run's labeling probes.
	if opt.Trace.Enabled() {
		sum := make([]uint32, subject.NumSignatures)
		for _, wk := range workers {
			for i, v := range wk.m.SigBucketsTried() {
				sum[i] += v
			}
		}
		emitSigBuckets(opt.Trace, sum, nil)
	}
	return nil
}

// drainWorkers merges per-worker stats into the result and returns
// the first error in worker order. Chunks are contiguous ascending ID
// ranges, so the first error in worker order is the error at the
// smallest failing node — the one the serial loop would have hit.
func drainWorkers(res *Result, workers []*labelWorker) error {
	var err error
	for _, w := range workers {
		res.Stats.merge(w.stats)
		w.stats = Stats{}
		if err == nil && w.err != nil {
			err = w.err
		}
	}
	return err
}
