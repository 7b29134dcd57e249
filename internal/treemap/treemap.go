// Package treemap implements conventional tree covering — the
// Keutzer/Rudell technology-mapping baseline the paper compares
// against. The subject DAG is partitioned at multiple-fanout points
// into trees, each tree is covered optimally by dynamic programming
// using exact matches (Definition 2), and the per-tree results are
// glued: a multi-fanout node is implemented exactly once and no
// subject node is ever duplicated.
//
// Two objectives are provided: minimum delay under a load-independent
// model (Rudell) and minimum area (Keutzer). The delay objective must
// agree exactly with the generic covering engine run in exact-match
// mode (internal/core with match.Exact); the test suite asserts this.
// The chosen cover is emitted through core.Emit, the DAG covering
// engine's own netlist construction.
package treemap

import (
	"context"
	"fmt"
	"math"
	"time"

	"dagcover/internal/core"
	"dagcover/internal/genlib"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/obs"
	"dagcover/internal/subject"
)

// cancelCheckStride is how many DP nodes are processed between
// ctx.Err() polls; see internal/core for the rationale.
const cancelCheckStride = 64

// Objective selects the DP cost.
type Objective int

const (
	// MinDelay minimizes worst output arrival (Rudell).
	MinDelay Objective = iota
	// MinArea minimizes total gate area (Keutzer).
	MinArea
)

func (o Objective) String() string {
	if o == MinArea {
		return "min-area"
	}
	return "min-delay"
}

// Options configures Map.
type Options struct {
	Objective Objective
	// Delay is the delay model (default genlib.IntrinsicDelay); it is
	// also used to report the delay of min-area mappings.
	Delay genlib.DelayModel
	// Arrivals optionally gives primary-input arrival times.
	Arrivals map[string]float64
	// Ctx, when non-nil, lets callers cancel the covering run: the DP
	// polls ctx.Err() every cancelCheckStride nodes and Map returns an
	// error wrapping ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
	// Trace, when non-nil, records the DP and emission phases as spans.
	Trace *obs.Trace
}

// Result is a completed tree mapping.
type Result struct {
	Netlist *mapping.Netlist
	// Delay is the worst output arrival of the mapped netlist.
	Delay float64
	// Cost is the optimized DP cost summed over emitted trees: equal
	// to Delay for MinDelay, total area for MinArea.
	Cost float64
	// Trees is the number of trees in the static partition.
	Trees int
	// Cover and Emit are the wall times of the DP and emission phases.
	Cover, Emit time.Duration
}

// Map covers the subject graph tree by tree. The matcher should hold
// tree-shaped patterns (subject.CompileOptions{Share: false}); shared
// DAG patterns are legal but can never produce exact matches beyond
// fully reconvergent cones.
func Map(g *subject.Graph, m *match.Matcher, opt Options) (*Result, error) {
	if opt.Delay == nil {
		opt.Delay = genlib.IntrinsicDelay{}
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("treemap: subject graph %q has no outputs", g.Name)
	}
	nn := g.NumNodes()

	// Static partition: a node is a tree boundary ("visible") when it
	// is a PI, an output root, or has multiple fanouts.
	visible := make([]bool, nn)
	for i := 0; i < nn; i++ {
		n := subject.Node(i)
		visible[i] = g.KindOf(n) == subject.PI || g.FanoutCount(n) >= 2
	}
	trees := 0
	for _, o := range g.Outputs {
		visible[o.Node] = true
	}
	for i := 0; i < nn; i++ {
		if visible[i] && g.KindOf(subject.Node(i)) != subject.PI {
			trees++
		}
	}

	// DP over all nodes in topological order. For delay the recurrence
	// over exact matches is tree-local automatically; for area,
	// visible leaves cost nothing (their tree pays once).
	dpStart := time.Now()
	dpSpan := opt.Trace.Start("treemap.dp")
	arr := make([]float64, nn)
	areaCost := make([]float64, nn)
	chosen := make([]core.Label, nn) // the DP winners; Arrival and Covered unused
	var scratch []subject.Node
	for i := 0; i < nn; i++ {
		if i%cancelCheckStride == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("treemap: covering interrupted: %w", err)
			}
		}
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			arr[i] = opt.Arrivals[g.NameOf(n)]
			continue
		}
		var bestPat *subject.Pattern
		bestCost := math.Inf(1)
		bestTie := math.Inf(1)
		m.Enumerate(g, n, match.Exact, func(mt *match.Match) bool {
			worst := math.Inf(-1)
			area := mt.Pattern.Gate.Area
			for pin, leaf := range mt.Leaves {
				if v := arr[leaf] + opt.Delay.PinDelay(mt.Pattern.Gate, pin); v > worst {
					worst = v
				}
				if !visible[leaf] {
					area += areaCost[leaf]
				}
			}
			cost, tie := worst, area
			if opt.Objective == MinArea {
				cost, tie = area, worst
			}
			if cost < bestCost || (cost == bestCost && tie < bestTie) {
				bestCost, bestTie = cost, tie
				bestPat = mt.Pattern
				scratch = append(scratch[:0], mt.Leaves...)
			}
			return true
		})
		if bestPat == nil {
			return nil, fmt.Errorf(
				"treemap: no exact match at node %v of %q; the library must at least contain a 2-input NAND and an inverter",
				n, g.Name)
		}
		chosen[i] = core.Label{Pat: bestPat, Leaves: append([]subject.Node(nil), scratch...)}
		worst := math.Inf(-1)
		area := bestPat.Gate.Area
		for pin, leaf := range chosen[i].Leaves {
			if v := arr[leaf] + opt.Delay.PinDelay(bestPat.Gate, pin); v > worst {
				worst = v
			}
			if !visible[leaf] {
				area += areaCost[leaf]
			}
		}
		arr[i] = worst
		areaCost[i] = area
	}

	dpSpan.Arg("nodes", nn).Arg("trees", trees).
		Arg("objective", opt.Objective.String()).End()
	coverTime := time.Since(dpStart)

	// Glue: demand-driven emission from the outputs. Each demanded
	// node is emitted exactly once — no duplication in tree mapping —
	// in DFS post-order, so every cell follows its leaves' drivers.
	emitStart := time.Now()
	emitSpan := opt.Trace.Start("treemap.emit")
	var cells []subject.Node
	pins := 0
	demanded := make([]bool, nn)
	var visit func(n subject.Node)
	visit = func(n subject.Node) {
		if demanded[n] || g.KindOf(n) == subject.PI {
			return
		}
		demanded[n] = true
		for _, leaf := range chosen[n].Leaves {
			visit(leaf)
		}
		cells = append(cells, n)
		pins += len(chosen[n].Leaves)
	}
	for _, o := range g.Outputs {
		visit(o.Node)
	}
	nl, delay, _, err := core.Emit(g, cells, pins, chosen, opt.Delay, opt.Arrivals)
	if err != nil {
		return nil, err
	}
	emitSpan.Arg("cells", nl.NumCells()).End()
	res := &Result{
		Netlist: nl, Delay: delay, Trees: trees,
		Cover: coverTime, Emit: time.Since(emitStart),
	}
	if opt.Objective == MinArea {
		res.Cost = nl.Area()
	} else {
		res.Cost = delay
	}
	return res, nil
}
