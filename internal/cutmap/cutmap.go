// Package cutmap implements k-LUT technology mapping by explicit
// k-feasible cut enumeration with priority pruning — the successor
// technique to FlowMap's network-flow labeling, and the vehicle for
// the area/depth trade-off the paper's conclusion points to (Cong &
// Ding, "On area/depth trade-off in LUT-based FPGA technology
// mapping").
//
// Modes:
//
//   - ModeDepth: minimize LUT depth. With unbounded cut lists the
//     labels equal FlowMap's provably optimal depths; with priority
//     pruning they match in practice (the tests cross-check both).
//   - ModeArea: minimize LUT count by area-flow selection, subject to
//     a depth bound of (optimal depth + Slack).
package cutmap

import (
	"context"
	"fmt"
	"math"
	"sort"

	"dagcover/internal/network"
	"dagcover/internal/obs"
	"dagcover/internal/subject"
)

// Mode selects the optimization objective.
type Mode int

const (
	// ModeDepth minimizes depth (FlowMap's objective).
	ModeDepth Mode = iota
	// ModeArea minimizes LUT count under a depth bound.
	ModeArea
)

func (m Mode) String() string {
	if m == ModeArea {
		return "area"
	}
	return "depth"
}

// Options configures the mapper.
type Options struct {
	// K is the LUT input count (required, >= 2).
	K int
	// MaxCuts bounds the cut list kept per node (priority cuts);
	// 0 means 8. Larger lists are slower and more exact.
	MaxCuts int
	// Mode selects depth or area optimization.
	Mode Mode
	// Slack relaxes the depth bound in ModeArea: the mapping may be
	// up to Slack levels deeper than optimal.
	Slack int
	// Ctx, when non-nil, lets callers cancel the run: the cut
	// enumeration polls ctx.Err() periodically and Map returns an
	// error wrapping ctx.Err(). A nil Ctx never cancels.
	Ctx context.Context
	// Trace, when non-nil, records the cut enumeration, cover, and LUT
	// construction phases as spans.
	Trace *obs.Trace
}

// Result is a completed cut-based LUT mapping.
type Result struct {
	// Network is the LUT netlist.
	Network *network.Network
	// Depth is the mapped LUT depth.
	Depth int
	// OptimalDepth is the depth lower bound from the labels.
	OptimalDepth int
	// LUTs is the number of LUTs.
	LUTs int
	// Labels holds each node's optimal depth, indexed by subject ID.
	Labels []int
}

// cut is a set of leaves sorted by ID with a subsumption signature.
type cut struct {
	leaves []subject.Node
	sig    uint64
	depth  int     // max leaf label + 1
	flow   float64 // area flow estimate
}

// Map covers the subject graph with k-input LUTs.
func Map(g *subject.Graph, opt Options) (*Result, error) {
	if opt.K < 2 {
		return nil, fmt.Errorf("cutmap: K must be at least 2, got %d", opt.K)
	}
	if opt.MaxCuts == 0 {
		opt.MaxCuts = 8
	}
	if opt.MaxCuts < 0 {
		return nil, fmt.Errorf("cutmap: MaxCuts must be non-negative")
	}
	if opt.Ctx == nil {
		opt.Ctx = context.Background()
	}
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("cutmap: subject graph %q has no outputs", g.Name)
	}
	nn := g.NumNodes()

	// Fanout estimates for area flow (at least 1 to avoid division
	// blowup on dangling nodes).
	fanouts := make([]float64, nn)
	for i := 0; i < nn; i++ {
		f := g.FanoutCount(subject.Node(i))
		if f < 1 {
			f = 1
		}
		fanouts[i] = float64(f)
	}

	enumSpan := opt.Trace.Start("cutmap.enumerate")
	labels := make([]int, nn)
	flows := make([]float64, nn)
	cutsOf := make([][]cut, nn)
	for i := 0; i < nn; i++ {
		if i%64 == 0 {
			if err := opt.Ctx.Err(); err != nil {
				return nil, fmt.Errorf("cutmap: cut enumeration interrupted: %w", err)
			}
		}
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			cutsOf[i] = []cut{unitCut(n, labels, flows)}
			continue
		}
		merged := mergeCuts(g, n, cutsOf, opt, labels, flows)
		// Label: best depth over the enumerated (non-trivial) cuts.
		best := math.MaxInt32
		bestFlow := math.Inf(1)
		for _, c := range merged {
			if c.depth < best {
				best = c.depth
			}
			if c.flow < bestFlow {
				bestFlow = c.flow
			}
		}
		if best == math.MaxInt32 {
			return nil, fmt.Errorf("cutmap: node %v has no %d-feasible cut", n, opt.K)
		}
		labels[i] = best
		flows[i] = bestFlow / fanouts[i]
		// Keep the trivial cut for the parents' merges.
		merged = append(merged, unitCut(n, labels, flows))
		cutsOf[i] = merged
	}

	res := &Result{Labels: labels}
	for _, o := range g.Outputs {
		if labels[o.Node] > res.OptimalDepth {
			res.OptimalDepth = labels[o.Node]
		}
	}
	totalCuts := 0
	for _, cs := range cutsOf {
		totalCuts += len(cs)
	}
	enumSpan.Arg("nodes", nn).Arg("cuts_kept", totalCuts).
		Arg("optimal_depth", res.OptimalDepth).End()

	// Cover: choose one cut per demanded node in reverse topological
	// order, respecting required depths.
	coverSpan := opt.Trace.Start("cutmap.cover")
	required := make([]int, nn)
	for i := range required {
		required[i] = math.MaxInt32
	}
	bound := res.OptimalDepth
	if opt.Mode == ModeArea {
		bound += opt.Slack
	}
	for _, o := range g.Outputs {
		if g.KindOf(o.Node) == subject.PI {
			continue
		}
		req := labels[o.Node]
		if opt.Mode == ModeArea {
			req = bound
		}
		if req < required[o.Node] {
			required[o.Node] = req
		}
	}
	chosen := make([][]subject.Node, nn)
	for id := nn - 1; id >= 0; id-- {
		n := subject.Node(id)
		if g.KindOf(n) == subject.PI || required[id] == math.MaxInt32 {
			continue
		}
		var pick *cut
		for i := range cutsOf[id] {
			c := &cutsOf[id][i]
			if len(c.leaves) == 1 && c.leaves[0] == n {
				continue // trivial cut does not implement the node
			}
			if c.depth > required[id] {
				continue
			}
			if pick == nil {
				pick = c
				continue
			}
			var better bool
			if opt.Mode == ModeArea {
				better = c.flow < pick.flow || (c.flow == pick.flow && c.depth < pick.depth)
			} else {
				better = c.depth < pick.depth || (c.depth == pick.depth && c.flow < pick.flow)
			}
			if better {
				pick = c
			}
		}
		if pick == nil {
			return nil, fmt.Errorf("cutmap: internal error: node %v has no cut within depth %d", n, required[id])
		}
		chosen[id] = pick.leaves
		for _, leaf := range pick.leaves {
			if g.KindOf(leaf) == subject.PI {
				continue
			}
			r := required[id] - 1
			if r < labels[leaf] {
				// Cannot happen when the pick respected its depth.
				r = labels[leaf]
			}
			if r < required[leaf] {
				required[leaf] = r
			}
		}
	}

	coverSpan.Arg("mode", opt.Mode.String()).End()

	emitSpan := opt.Trace.Start("cutmap.emit")
	nw, luts, depth, err := g.LUTNetwork(g.Name+"_cutluts", chosen)
	if err != nil {
		return nil, err
	}
	res.Network = nw
	res.LUTs = luts
	res.Depth = depth
	emitSpan.Arg("luts", luts).Arg("depth", depth).End()
	return res, nil
}

func unitCut(n subject.Node, labels []int, flows []float64) cut {
	return cut{
		leaves: []subject.Node{n},
		sig:    1 << uint(int(n)%64),
		depth:  labels[n], // a unit cut "costs" the node's own label
		flow:   flows[n],
	}
}

// mergeCuts combines the fanin cut lists into the node's k-feasible
// cuts, with subsumption filtering and priority pruning.
func mergeCuts(g *subject.Graph, n subject.Node, cutsOf [][]cut, opt Options, labels []int, flows []float64) []cut {
	var raw []cut
	appendMerge := func(a, b cut) {
		leaves := mergeLeaves(a.leaves, b.leaves)
		if len(leaves) > opt.K {
			return
		}
		c := cut{leaves: leaves, sig: a.sig | b.sig}
		d := 0
		fl := 1.0
		for _, l := range leaves {
			if labels[l] > d {
				d = labels[l]
			}
			fl += flows[l]
		}
		c.depth = d + 1
		c.flow = fl
		raw = append(raw, c)
	}
	switch g.NumFanins(n) {
	case 1:
		for _, a := range cutsOf[g.Fanin0(n)] {
			appendMerge(a, cut{})
		}
	case 2:
		for _, a := range cutsOf[g.Fanin0(n)] {
			for _, b := range cutsOf[g.Fanin1(n)] {
				appendMerge(a, b)
			}
		}
	}
	// Subsumption: drop cuts whose leaf set is a superset of another.
	filtered := filterDominated(raw)
	// Priority: depth first, then flow, then size.
	sort.Slice(filtered, func(i, j int) bool {
		a, b := filtered[i], filtered[j]
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		if a.flow != b.flow {
			return a.flow < b.flow
		}
		return len(a.leaves) < len(b.leaves)
	})
	if len(filtered) > opt.MaxCuts {
		filtered = filtered[:opt.MaxCuts]
	}
	return filtered
}

func mergeLeaves(a, b []subject.Node) []subject.Node {
	out := make([]subject.Node, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// filterDominated removes duplicate and superset cuts.
func filterDominated(cuts []cut) []cut {
	var out []cut
	for i, c := range cuts {
		dominated := false
		for j, d := range cuts {
			if i == j {
				continue
			}
			if d.sig&^c.sig != 0 {
				continue // quick reject: d has bits outside c
			}
			if isSubsetOrEqual(d.leaves, c.leaves) && (len(d.leaves) < len(c.leaves) || j < i) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, c)
		}
	}
	return out
}

// isSubsetOrEqual reports whether a ⊆ b (both sorted by ID).
func isSubsetOrEqual(a, b []subject.Node) bool {
	i := 0
	for _, x := range b {
		if i < len(a) && a[i] == x {
			i++
		}
	}
	return i == len(a)
}
