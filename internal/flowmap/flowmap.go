// Package flowmap implements the FlowMap algorithm of Cong & Ding
// (§2 of the paper): delay-optimal technology mapping for k-input
// LUT FPGAs by network-flow-based labeling.
//
// Labels are computed in topological order. For node t with
// p = max fanin label, a k-feasible cut whose nodes all carry labels
// <= p-1 exists iff, after collapsing every label-p cone node into t,
// the node-capacity-1 min cut between the cone inputs and t is at most
// k. If it exists, label(t) = p and the min cut is stored; otherwise
// label(t) = p+1 with the trivial cut (the fanins). The mapping phase
// walks back from the outputs creating one LUT per visited node from
// its stored cut, duplicating logic exactly as DAG covering does.
//
// The implementation maps NAND2/INV subject graphs, which are
// 2-bounded by construction (any k-bounded network can be decomposed
// into one).
package flowmap

import (
	"context"
	"fmt"
	"slices"

	"dagcover/internal/maxflow"
	"dagcover/internal/network"
	"dagcover/internal/obs"
	"dagcover/internal/subject"
)

// cancelCheckStride is how many nodes are labeled between ctx.Err()
// polls in MapContext; see internal/core for the rationale.
const cancelCheckStride = 64

// Result is a completed LUT mapping.
type Result struct {
	// Network is the LUT netlist: every internal node is one k-LUT.
	Network *network.Network
	// Depth is the optimal LUT depth (the maximum output label).
	Depth int
	// Labels holds each subject node's optimal depth, indexed by ID.
	Labels []int
	// LUTs is the number of LUTs created.
	LUTs int
}

// Map covers the subject graph with k-input LUTs.
func Map(g *subject.Graph, k int) (*Result, error) {
	return MapContext(context.Background(), g, k)
}

// MapContext is Map with cancellation: the labeling loop polls
// ctx.Err() every cancelCheckStride nodes (each label solves one
// max-flow, the expensive unit) and returns an error wrapping
// ctx.Err() when the context is done.
func MapContext(ctx context.Context, g *subject.Graph, k int) (*Result, error) {
	return MapTraced(ctx, g, k, nil)
}

// MapTraced is MapContext with phase tracing: the labeling loop and
// LUT construction are recorded as spans on tr (nil disables).
func MapTraced(ctx context.Context, g *subject.Graph, k int, tr *obs.Trace) (*Result, error) {
	if k < 2 {
		return nil, fmt.Errorf("flowmap: k must be at least 2, got %d", k)
	}
	if len(g.Outputs) == 0 {
		return nil, fmt.Errorf("flowmap: subject graph %q has no outputs", g.Name)
	}
	nn := g.NumNodes()
	labelSpan := tr.Start("flowmap.label")
	labels := make([]int, nn)
	cuts := make([][]subject.Node, nn)
	lb := &labeler{
		k:      k,
		g:      g,
		labels: labels,
		seen:   make([]uint64, nn),
		inID:   make([]int32, nn),
		outID:  make([]int32, nn),
		fg:     maxflow.New(2),
	}
	for i := 0; i < nn; i++ {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("flowmap: labeling interrupted: %w", err)
			}
		}
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			labels[i] = 0
			continue
		}
		labels[i], cuts[i] = lb.labelNode(n)
	}

	labelSpan.Arg("nodes", nn).Arg("k", k).End()

	res := &Result{Labels: labels}
	conSpan := tr.Start("flowmap.construct")
	nw, luts, _, err := g.LUTNetwork(g.Name+"_luts", cuts)
	if err != nil {
		return nil, err
	}
	res.Network = nw
	res.LUTs = luts
	for _, o := range g.Outputs {
		if labels[o.Node] > res.Depth {
			res.Depth = labels[o.Node]
		}
	}
	conSpan.Arg("luts", luts).Arg("depth", res.Depth).End()
	return res, nil
}

// labeler carries the reusable scratch of the labeling loop: the cone
// list, epoch-stamped visited marks, node-split index tables and the
// flow network are all recycled, so labeling allocates only the cuts
// it returns.
type labeler struct {
	k      int
	g      *subject.Graph
	labels []int
	seen   []uint64
	epoch  uint64
	cone   []subject.Node
	inID   []int32
	outID  []int32
	fg     *maxflow.Graph
}

// collectCone fills l.cone with the transitive fanin of t (inclusive).
func (l *labeler) collectCone(t subject.Node) {
	g := l.g
	l.epoch++
	l.cone = l.cone[:0]
	stack := append(l.cone[:0:0], t) // small local stack
	l.seen[t] = l.epoch
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		l.cone = append(l.cone, n)
		fis, k := g.Fanins(n)
		for i := 0; i < k; i++ {
			fi := fis[i]
			if l.seen[fi] != l.epoch {
				l.seen[fi] = l.epoch
				stack = append(stack, fi)
			}
		}
	}
}

// labelNode computes label(t) and the stored cut.
func (l *labeler) labelNode(t subject.Node) (int, []subject.Node) {
	g, k, labels := l.g, l.k, l.labels
	l.collectCone(t)
	p := 0
	tfis, tk := g.Fanins(t)
	for i := 0; i < tk; i++ {
		if labels[tfis[i]] > p {
			p = labels[tfis[i]]
		}
	}
	fanins := append([]subject.Node(nil), tfis[:tk]...)
	if p == 0 {
		// All cone inputs are primary inputs with label 0; any cut
		// yields depth 1. Prefer the whole PI support if k-feasible
		// (maximally wide LUT), else the fanins.
		var pis []subject.Node
		for _, n := range l.cone {
			if g.KindOf(n) == subject.PI {
				pis = append(pis, n)
			}
		}
		if len(pis) <= k {
			slices.Sort(pis)
			return 1, pis
		}
		return 1, fanins
	}

	// Build the node-split flow network. Nodes with label == p (and t
	// itself) collapse into the sink.
	fg := l.fg
	fg.Reset(2)
	const source, sink = 0, 1
	collapsed := func(n subject.Node) bool { return n == t || labels[n] == p }
	for _, n := range l.cone {
		if collapsed(n) {
			continue
		}
		in := fg.AddNode()
		out := fg.AddNode()
		l.inID[n], l.outID[n] = int32(in), int32(out)
		mustEdge(fg, in, out, 1)
		if g.KindOf(n) == subject.PI {
			mustEdge(fg, source, in, maxflow.Inf)
		}
	}
	for _, n := range l.cone {
		if g.KindOf(n) == subject.PI {
			continue
		}
		fis, kf := g.Fanins(n)
		for i := 0; i < kf; i++ {
			fi := fis[i]
			// Edge fi -> n within the cone.
			if collapsed(fi) {
				// fi collapsed implies n collapsed (labels are
				// monotone along edges); no edge needed.
				continue
			}
			from := int(l.outID[fi])
			if collapsed(n) {
				mustEdge(fg, from, sink, maxflow.Inf)
			} else {
				mustEdge(fg, from, int(l.inID[n]), maxflow.Inf)
			}
		}
	}
	flow := fg.MaxFlow(source, sink, k)
	if flow > k {
		return p + 1, fanins
	}
	// Extract the cut: nodes whose split edge crosses the source side.
	side := fg.SourceSide(source)
	var cut []subject.Node
	for _, n := range l.cone {
		if collapsed(n) {
			continue
		}
		if side[int(l.inID[n])] && !side[int(l.outID[n])] {
			cut = append(cut, n)
		}
	}
	if len(cut) == 0 || len(cut) > k {
		// Defensive: fall back to the trivial cut.
		return p + 1, fanins
	}
	slices.Sort(cut)
	return p, cut
}

func mustEdge(fg *maxflow.Graph, u, v, cap int) {
	if err := fg.AddEdge(u, v, cap); err != nil {
		panic(fmt.Sprintf("flowmap: %v", err))
	}
}

// Check validates a result against its subject graph: every LUT must
// have at most k inputs and the label invariants must hold.
func Check(g *subject.Graph, res *Result, k int) error {
	for _, n := range res.Network.Nodes() {
		if n.Func != nil && len(n.Fanins) > k {
			return fmt.Errorf("flowmap: LUT %q has %d inputs > k=%d", n.Name, len(n.Fanins), k)
		}
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		l := res.Labels[i]
		if g.KindOf(n) == subject.PI {
			if l != 0 {
				return fmt.Errorf("flowmap: PI %v labeled %d", n, l)
			}
			continue
		}
		p := 0
		fis, k2 := g.Fanins(n)
		for j := 0; j < k2; j++ {
			if res.Labels[fis[j]] > p {
				p = res.Labels[fis[j]]
			}
		}
		if l != p && l != p+1 {
			return fmt.Errorf("flowmap: node %v label %d outside {p, p+1} = {%d, %d}", n, l, p, p+1)
		}
	}
	return nil
}
