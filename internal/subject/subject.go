// Package subject implements Keutzer-style subject graphs and pattern
// graphs: directed acyclic graphs whose internal nodes are 2-input
// NANDs and inverters. A circuit (network.Network) is technology-
// decomposed into a subject graph; each library gate is decomposed
// into a pattern graph. Technology mapping covers the former with the
// latter.
//
// Decomposition is deterministic and balanced, and uses structural
// hashing (with inverter-pair folding) so that identical subexpressions
// share nodes. Tree mapping and DAG mapping therefore always operate
// on the same subject graph, as in the paper's experiments.
//
// # Representation
//
// A Node is a dense int32 handle; node 0 is created first and IDs grow
// in topological order (every node after its fanins). The Graph stores
// all per-node attributes in parallel flat arrays (struct-of-arrays):
// kind bytes, fanin0/fanin1 handles, and fanout counts. A CSR-style
// fanout index is built once on demand after construction. There are
// no per-node heap allocations and no pointer-keyed side tables: a
// million-node graph is a handful of large slices, which keeps both
// the garbage collector and the cache happy during mapping. Algorithms
// that need per-node scratch use dense slices indexed by Node, usually
// generation-stamped (see Marker) so they can be reused without
// clearing.
package subject

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// Kind classifies subject-graph nodes. A Kind's value is its fanin
// count (PI 0, Inv 1, Nand2 2); NumFanins and the cone encoder rely on
// it.
type Kind uint8

const (
	// PI is a source: a primary input, a latch output, or a pattern
	// leaf.
	PI Kind = iota
	// Inv is an inverter.
	Inv
	// Nand2 is a 2-input NAND.
	Nand2
)

func (k Kind) String() string {
	switch k {
	case PI:
		return "pi"
	case Inv:
		return "inv"
	case Nand2:
		return "nand2"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node is a subject-graph vertex handle: a dense index into the
// owning Graph's arrays. Handles are only meaningful together with
// their Graph; they index naturally into per-node scratch slices
// (labels[n], visited[n]).
type Node = int32

// None is the null node handle.
const None Node = -1

// Output names a subject node that must be made available in the
// mapped circuit (a primary output or a latch input).
type Output struct {
	Name string
	Node Node
}

// Graph is a subject graph in struct-of-arrays form. Nodes appear in
// topological order (every node after its fanins).
type Graph struct {
	Name    string
	PIs     []Node
	Outputs []Output

	// Parallel per-node arrays, indexed by Node. kind doubles as the
	// packed per-node flag byte (the two low bits hold the Kind, bit 2
	// is drivesOutput; the upper bits are reserved). fanin1 is None for
	// Inv, both fanins are None for PI. nfo counts fanouts
	// incrementally; tied NAND inputs count twice, matching the two
	// fanin slots (Check relies on this symmetry).
	kind   []Kind
	fanin0 []Node
	fanin1 []Node
	nfo    []int32

	// CSR fanout index: foList[foStart[n]:foStart[n+1]] lists the
	// fanouts of n in creation order. Built once by Fanouts after
	// construction; adding nodes invalidates it.
	foStart []int32
	foList  []Node
	foOK    bool

	share      bool
	chain      bool // left-leaning decomposition instead of balanced
	strash     strashTable
	strashHits int64
	piName     map[Node]string // PI names (sources only)
	byName     map[string]Node // PI lookup

	// Cached canonical digest (see Digest); trusted only while the
	// node and output counts still match the graph that computed it.
	// Swapped whole through an atomic pointer, so Map calls running at
	// once on one graph may read and fill it.
	digest atomic.Pointer[digestSnapshot]
}

// SetChainDecomposition switches n-ary AND/OR/XOR decomposition from
// balanced trees to left-leaning chains; used by the decomposition-
// sensitivity ablation (optimality is relative to the subject graph,
// §4's discussion of Lehman et al.). Must be called before Build.
func (g *Graph) SetChainDecomposition(on bool) { g.chain = on }

// splitPoint picks the n-ary operator split: the midpoint for
// balanced trees, n-1 for chains.
func (g *Graph) splitPoint(n int) int {
	if g.chain {
		return n - 1
	}
	return n / 2
}

// NewGraph returns an empty subject graph. If share is true, identical
// subexpressions are merged by structural hashing and inverter pairs
// are folded (the normal mode for circuits); pattern graphs for tree
// matching may disable sharing.
func NewGraph(name string, share bool) *Graph {
	return &Graph{
		Name:   name,
		share:  share,
		piName: map[Node]string{},
		byName: map[string]Node{},
	}
}

// Reserve grows the node arrays to hold n nodes without reallocation.
func (g *Graph) Reserve(n int) {
	if n <= cap(g.kind) {
		return
	}
	g.kind = append(make([]Kind, 0, n), g.kind...)
	g.fanin0 = append(make([]Node, 0, n), g.fanin0...)
	g.fanin1 = append(make([]Node, 0, n), g.fanin1...)
	g.nfo = append(make([]int32, 0, n), g.nfo...)
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.kind) }

// KindOf returns the kind of n.
func (g *Graph) KindOf(n Node) Kind { return g.kind[n] & 3 }

// drivesOutput is the kind-byte flag MarkOutput sets on output nodes.
const drivesOutput Kind = 4

// DrivesOutput reports whether n is bound to an output. Output
// references are not fanouts (FanoutCount ignores them), but an
// output's node must exist in the mapped circuit, so exact matches
// never cover one internally.
func (g *Graph) DrivesOutput(n Node) bool { return g.kind[n]&drivesOutput != 0 }

// Fanin0 returns the first fanin of n (None for a PI).
func (g *Graph) Fanin0(n Node) Node { return g.fanin0[n] }

// Fanin1 returns the second fanin of n (None unless n is a NAND).
func (g *Graph) Fanin1(n Node) Node { return g.fanin1[n] }

// Fanin returns fanin slot 0 or 1 of n.
func (g *Graph) Fanin(n Node, slot int) Node {
	if slot == 0 {
		return g.fanin0[n]
	}
	return g.fanin1[n]
}

// NumFanins returns 0, 1 or 2 according to the node kind.
func (g *Graph) NumFanins(n Node) int { return int(g.KindOf(n)) }

// Fanins returns the fanins of n and their count.
func (g *Graph) Fanins(n Node) ([2]Node, int) {
	return [2]Node{g.fanin0[n], g.fanin1[n]}, g.NumFanins(n)
}

// FanoutCount returns the number of fanout references of n (tied NAND
// inputs count twice).
func (g *Graph) FanoutCount(n Node) int { return int(g.nfo[n]) }

// Fanouts returns the fanouts of n in creation order, as a view into
// the CSR index. The index is built on first use after construction;
// adding nodes invalidates and rebuilds it.
func (g *Graph) Fanouts(n Node) []Node {
	if !g.foOK {
		g.buildFanoutIndex()
	}
	return g.foList[g.foStart[n]:g.foStart[n+1]]
}

// buildFanoutIndex constructs the CSR fanout arrays from the fanin
// arrays in one pass.
func (g *Graph) buildFanoutIndex() {
	nn := len(g.kind)
	if cap(g.foStart) >= nn+1 {
		g.foStart = g.foStart[:nn+1]
		for i := range g.foStart {
			g.foStart[i] = 0
		}
	} else {
		g.foStart = make([]int32, nn+1)
	}
	total := int32(0)
	for i := 0; i < nn; i++ {
		g.foStart[i+1] = g.foStart[i] + g.nfo[i]
		total += g.nfo[i]
	}
	if cap(g.foList) >= int(total) {
		g.foList = g.foList[:total]
	} else {
		g.foList = make([]Node, total)
	}
	// fill positions; reuse a moving cursor per node
	cursor := make([]int32, nn)
	copy(cursor, g.foStart[:nn])
	for i := 0; i < nn; i++ {
		n := Node(i)
		if f := g.fanin0[n]; f != None {
			g.foList[cursor[f]] = n
			cursor[f]++
		}
		if f := g.fanin1[n]; f != None {
			g.foList[cursor[f]] = n
			cursor[f]++
		}
	}
	g.foOK = true
}

// NameOf returns the source name of a PI node ("" otherwise).
func (g *Graph) NameOf(n Node) string { return g.piName[n] }

// NodeString renders a node for diagnostics.
func (g *Graph) NodeString(n Node) string {
	if n == None {
		return "none"
	}
	switch g.KindOf(n) {
	case PI:
		return fmt.Sprintf("%d:pi(%s)", n, g.piName[n])
	case Inv:
		return fmt.Sprintf("%d:inv(%d)", n, g.fanin0[n])
	}
	return fmt.Sprintf("%d:nand2(%d,%d)", n, g.fanin0[n], g.fanin1[n])
}

// newNode appends one node to the arrays.
func (g *Graph) newNode(k Kind, f0, f1 Node) Node {
	n := Node(len(g.kind))
	g.kind = append(g.kind, k)
	g.fanin0 = append(g.fanin0, f0)
	g.fanin1 = append(g.fanin1, f1)
	g.nfo = append(g.nfo, 0)
	if f0 != None {
		g.nfo[f0]++
	}
	if f1 != None {
		g.nfo[f1]++
	}
	g.foOK = false
	return n
}

// AddPI creates a source node.
func (g *Graph) AddPI(name string) (Node, error) {
	if _, dup := g.byName[name]; dup {
		return None, fmt.Errorf("subject: duplicate source %q", name)
	}
	n := g.newNode(PI, None, None)
	g.PIs = append(g.PIs, n)
	g.piName[n] = name
	g.byName[name] = n
	return n, nil
}

// PI returns the source node with the given name, or None.
func (g *Graph) PI(name string) Node {
	if n, ok := g.byName[name]; ok {
		return n
	}
	return None
}

// Not returns an inverter over x (folding double inversion when
// sharing is enabled).
func (g *Graph) Not(x Node) Node {
	if g.share && g.KindOf(x) == Inv {
		return g.fanin0[x]
	}
	if g.share {
		key := strashInvKey(x)
		if n, ok := g.strash.lookup(key); ok {
			g.strashHits++
			return n
		}
		n := g.newNode(Inv, x, None)
		g.strash.insert(key, n)
		return n
	}
	return g.newNode(Inv, x, None)
}

// Nand returns a 2-input NAND over x and y (commutatively hashed).
// With sharing enabled, NAND(x,x) folds to NOT(x).
func (g *Graph) Nand(x, y Node) Node {
	if g.share && x == y {
		return g.Not(x)
	}
	a, b := x, y
	if a > b {
		a, b = b, a
	}
	if g.share {
		key := strashNandKey(a, b)
		if n, ok := g.strash.lookup(key); ok {
			g.strashHits++
			return n
		}
		n := g.newNode(Nand2, a, b)
		g.strash.insert(key, n)
		return n
	}
	return g.newNode(Nand2, a, b)
}

// StrashHits returns how many Not/Nand constructions were answered by
// the structural hash table instead of creating a node.
func (g *Graph) StrashHits() int64 { return g.strashHits }

// MarkOutput registers node as a required output with the given name.
func (g *Graph) MarkOutput(name string, n Node) {
	g.Outputs = append(g.Outputs, Output{Name: name, Node: n})
	g.kind[n] |= drivesOutput
}

// Build decomposes expression e (over the named sources in env) into
// the graph and returns the node computing e.
func (g *Graph) Build(e *logic.Expr, env map[string]Node) (Node, error) {
	return g.build(e, false, env)
}

func (g *Graph) build(e *logic.Expr, neg bool, env map[string]Node) (Node, error) {
	switch e.Op {
	case logic.OpConst:
		return None, fmt.Errorf("subject: constant functions cannot be decomposed (run constant propagation first)")
	case logic.OpVar:
		n, ok := env[e.Var]
		if !ok {
			return None, fmt.Errorf("subject: unbound variable %q", e.Var)
		}
		if neg {
			n = g.Not(n)
		}
		return n, nil
	case logic.OpNot:
		return g.build(e.Kids[0], !neg, env)
	case logic.OpAnd:
		return g.buildAnd(e.Kids, neg, env)
	case logic.OpOr:
		// De Morgan: x1+...+xn = !(!x1 * ... * !xn).
		negKids := make([]*logic.Expr, len(e.Kids))
		for i, k := range e.Kids {
			negKids[i] = logic.Not(k)
		}
		return g.buildAnd(negKids, !neg, env)
	case logic.OpXor:
		return g.buildXor(e.Kids, neg, env)
	}
	return None, fmt.Errorf("subject: invalid expression op %v", e.Op)
}

// buildAnd decomposes AND(kids) (negated if neg) into a balanced
// NAND2/INV tree.
func (g *Graph) buildAnd(kids []*logic.Expr, neg bool, env map[string]Node) (Node, error) {
	if len(kids) == 1 {
		return g.build(kids[0], neg, env)
	}
	mid := g.splitPoint(len(kids))
	l, err := g.buildAnd2(kids[:mid], env)
	if err != nil {
		return None, err
	}
	r, err := g.buildAnd2(kids[mid:], env)
	if err != nil {
		return None, err
	}
	n := g.Nand(l, r)
	if !neg {
		n = g.Not(n)
	}
	return n, nil
}

// buildAnd2 builds the positive AND of kids.
func (g *Graph) buildAnd2(kids []*logic.Expr, env map[string]Node) (Node, error) {
	return g.buildAnd(kids, false, env)
}

// buildXor decomposes XOR(kids) in sum-of-products form,
// a^b = !(!(a*!b) * !(!a*b)), the shape SIS's technology
// decomposition produces from the SOP representation. The operand
// subgraphs are built once and reused for both polarities (only an
// inverter separates them), so the expansion stays linear for n-ary
// XOR.
func (g *Graph) buildXor(kids []*logic.Expr, neg bool, env map[string]Node) (Node, error) {
	if len(kids) == 1 {
		return g.build(kids[0], neg, env)
	}
	mid := g.splitPoint(len(kids))
	a, err := g.buildXor(kids[:mid], false, env)
	if err != nil {
		return None, err
	}
	b, err := g.buildXor(kids[mid:], false, env)
	if err != nil {
		return None, err
	}
	n := g.Nand(g.Nand(a, g.Not(b)), g.Nand(g.Not(a), b))
	if neg {
		n = g.Not(n)
	}
	return n, nil
}

// Lit is one literal of a sum-of-products cover: Node, complemented
// when Neg is set.
type Lit struct {
	Node Node
	Neg  bool
}

// BuildSOP decomposes a sum of products straight into the graph,
// without an expression tree. Cube k is the conjunction of
// lits[ends[k-1]:ends[k]] (lits[:ends[0]] for the first); the result
// is the disjunction of the cubes, complemented when on is false (an
// off-phase BLIF cover). Every cube needs at least one literal and
// there must be at least one cube: constants are folded by the caller.
//
// BuildSOP issues exactly the Nand and Not calls, in the same order,
// that Build issues for the folded expression of the cover —
// Or(And(lits of cube 1), ...), wrapped in Not when !on — so node IDs
// and strash hits match that path. Like Build, it splits n-ary
// operators at splitPoint and realizes the disjunction by De Morgan
// as the complement of an AND over the complemented cubes.
func (g *Graph) BuildSOP(lits []Lit, ends []int, on bool) Node {
	return g.andNotCubes(lits, ends, 0, len(ends), on)
}

// andNotCubes builds the AND of the complemented cubes lo..hi-1,
// complemented when neg (buildAnd over Or's negated kids).
func (g *Graph) andNotCubes(lits []Lit, ends []int, lo, hi int, neg bool) Node {
	if hi-lo == 1 {
		start := 0
		if lo > 0 {
			start = ends[lo-1]
		}
		return g.andLits(lits[start:ends[lo]], !neg)
	}
	mid := lo + g.splitPoint(hi-lo)
	l := g.andNotCubes(lits, ends, lo, mid, false)
	r := g.andNotCubes(lits, ends, mid, hi, false)
	n := g.Nand(l, r)
	if !neg {
		n = g.Not(n)
	}
	return n
}

// andLits builds the AND of one cube's literals, complemented when
// neg (buildAnd over the cube's literal expressions).
func (g *Graph) andLits(lits []Lit, neg bool) Node {
	if len(lits) == 1 {
		n := lits[0].Node
		if lits[0].Neg != neg {
			n = g.Not(n)
		}
		return n
	}
	mid := g.splitPoint(len(lits))
	l := g.andLits(lits[:mid], false)
	r := g.andLits(lits[mid:], false)
	n := g.Nand(l, r)
	if !neg {
		n = g.Not(n)
	}
	return n
}

// Check validates fanin/fanout symmetry and topological node order.
func (g *Graph) Check() error {
	nn := g.NumNodes()
	for i := 0; i < nn; i++ {
		n := Node(i)
		fis, k := g.Fanins(n)
		if g.KindOf(n) == PI {
			if g.fanin0[n] != None || g.fanin1[n] != None {
				return fmt.Errorf("subject: PI %v has fanins", g.NodeString(n))
			}
		}
		for s := 0; s < k; s++ {
			fi := fis[s]
			if fi == None {
				return fmt.Errorf("subject: node %v has nil fanin", g.NodeString(n))
			}
			if fi >= n {
				return fmt.Errorf("subject: node %v not topologically after fanin %v", g.NodeString(n), g.NodeString(fi))
			}
			count := 0
			for _, fo := range g.Fanouts(fi) {
				if fo == n {
					count++
				}
			}
			uses := 0
			for t := 0; t < k; t++ {
				if fis[t] == fi {
					uses++
				}
			}
			if count != uses {
				return fmt.Errorf("subject: fanout bookkeeping broken between %v and %v", g.NodeString(fi), g.NodeString(n))
			}
		}
	}
	if !g.foOK {
		g.buildFanoutIndex()
	}
	for i := 0; i < nn; i++ {
		if int(g.foStart[i+1]-g.foStart[i]) != int(g.nfo[i]) {
			return fmt.Errorf("subject: fanout count of %v disagrees with CSR index", g.NodeString(Node(i)))
		}
	}
	for _, o := range g.Outputs {
		if o.Node == None || int(o.Node) >= nn {
			return fmt.Errorf("subject: output %q references foreign node", o.Name)
		}
	}
	return nil
}

// Depth returns the maximum level over all nodes (PIs at level 0).
func (g *Graph) Depth() int {
	lv := make([]int32, g.NumNodes())
	max := int32(0)
	for i := range lv {
		n := Node(i)
		d := int32(0)
		if f := g.fanin0[n]; f != None && lv[f]+1 > d {
			d = lv[f] + 1
		}
		if f := g.fanin1[n]; f != None && lv[f]+1 > d {
			d = lv[f] + 1
		}
		lv[n] = d
		if d > max {
			max = d
		}
	}
	return int(max)
}

// Stats summarizes a subject graph.
type Stats struct {
	Nodes, PIs, Outputs int
	Nands, Invs         int
	Depth               int
	MultiFanout         int // nodes with fanout >= 2
}

// Stats computes summary statistics.
func (g *Graph) Stats() Stats {
	s := Stats{Nodes: g.NumNodes(), PIs: len(g.PIs), Outputs: len(g.Outputs), Depth: g.Depth()}
	for i := 0; i < g.NumNodes(); i++ {
		switch g.KindOf(Node(i)) {
		case Nand2:
			s.Nands++
		case Inv:
			s.Invs++
		}
		if g.nfo[i] >= 2 {
			s.MultiFanout++
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("nodes=%d (nand2=%d inv=%d) pi=%d out=%d depth=%d multifanout=%d",
		s.Nodes, s.Nands, s.Invs, s.PIs, s.Outputs, s.Depth, s.MultiFanout)
}

// FromNetwork technology-decomposes a Boolean network into a subject
// graph. Latch outputs become PI nodes; latch inputs are appended to
// Outputs after the primary outputs (callers that need to distinguish
// them can count: the first len(nw.Outputs()) entries are POs).
//
// Constant node functions are propagated into their fanouts first; a
// constant primary output is an error.
func FromNetwork(nw *network.Network) (*Graph, error) {
	return FromNetworkChained(nw, false)
}

// FromNetworkChained is FromNetwork with a left-leaning (chain)
// decomposition when chain is true; the default is balanced.
func FromNetworkChained(nw *network.Network, chain bool) (*Graph, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	g := NewGraph(nw.Name, true)
	g.SetChainDecomposition(chain)
	g.Reserve(len(topo) * 2)
	nodeOf := make(map[*network.Node]Node, len(topo))
	constOf := map[*network.Node]*logic.Expr{} // constant nodes
	env := map[string]Node{}
	for _, n := range topo {
		if n.Func == nil {
			pi, err := g.AddPI(n.Name)
			if err != nil {
				return nil, err
			}
			nodeOf[n] = pi
			continue
		}
		// Substitute constant fanins, then decompose.
		fn := n.Func
		for _, fi := range n.Fanins {
			if c, isConst := constOf[fi]; isConst {
				fn = logic.Substitute(fn, fi.Name, c)
			}
		}
		fn = logic.Fold(fn)
		if fn.Op == logic.OpConst {
			constOf[n] = fn
			continue
		}
		clear(env)
		for _, fi := range n.Fanins {
			if sn, ok := nodeOf[fi]; ok {
				env[fi.Name] = sn
			}
		}
		sn, err := g.Build(fn, env)
		if err != nil {
			return nil, fmt.Errorf("subject: node %q: %v", n.Name, err)
		}
		nodeOf[n] = sn
	}
	for _, o := range nw.Outputs() {
		sn, ok := nodeOf[o]
		if !ok {
			return nil, fmt.Errorf("subject: primary output %q is constant; constant outputs cannot be mapped", o.Name)
		}
		g.MarkOutput(o.Name, sn)
	}
	for _, l := range nw.Latches() {
		sn, ok := nodeOf[l.Input]
		if !ok {
			return nil, fmt.Errorf("subject: latch input %q is constant; constant latch inputs cannot be mapped", l.Input.Name)
		}
		g.MarkOutput(l.Input.Name, sn)
	}
	return g, nil
}

// Eval evaluates every node of the graph on 64 packed input vectors
// (keyed by PI name) and returns the packed value of each node,
// indexed by node ID.
func (g *Graph) Eval(inputs map[string]uint64) ([]uint64, error) {
	vals := make([]uint64, g.NumNodes())
	for i := range vals { // topological order
		n := Node(i)
		switch g.KindOf(n) {
		case PI:
			v, ok := inputs[g.piName[n]]
			if !ok {
				return nil, fmt.Errorf("subject: evaluation input %q not supplied", g.piName[n])
			}
			vals[n] = v
		case Inv:
			vals[n] = ^vals[g.fanin0[n]]
		case Nand2:
			vals[n] = ^(vals[g.fanin0[n]] & vals[g.fanin1[n]])
		}
	}
	return vals, nil
}

// Marker is a generation-stamped visited set over nodes: a dense
// stamp slice plus an epoch counter, so repeated traversals reuse the
// allocation without clearing (the idiom shared by the matcher
// scratch and the cone encoder). The zero value is ready to use.
type Marker struct {
	stamp []uint64
	epoch uint64
}

// Begin starts a fresh generation sized for g.
func (m *Marker) Begin(g *Graph) {
	if len(m.stamp) < g.NumNodes() {
		m.stamp = append(m.stamp, make([]uint64, g.NumNodes()-len(m.stamp))...)
	}
	m.epoch++
}

// Mark marks n in the current generation, reporting whether it was
// already marked.
func (m *Marker) Mark(n Node) bool {
	if m.stamp[n] == m.epoch {
		return true
	}
	m.stamp[n] = m.epoch
	return false
}

// Marked reports whether n is marked in the current generation.
func (m *Marker) Marked(n Node) bool { return m.stamp[n] == m.epoch }

// TransitiveFanin appends the TFI cone of root (including root) to
// dst, using the marker's current generation as the visited set: call
// m.Begin once, then accumulate cones of several roots without
// revisiting shared structure.
func (g *Graph) TransitiveFanin(root Node, m *Marker, dst []Node) []Node {
	if m.Mark(root) {
		return dst
	}
	dst = append(dst, root)
	stack := []Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if f := g.fanin0[n]; f != None && !m.Mark(f) {
			dst = append(dst, f)
			stack = append(stack, f)
		}
		if f := g.fanin1[n]; f != None && !m.Mark(f) {
			dst = append(dst, f)
			stack = append(stack, f)
		}
	}
	return dst
}

// ExprBuilder reconstructs Boolean expressions from subject cones.
// Its memo is a dense generation-stamped slice, so one builder can be
// reused across many extraction calls without per-call maps.
type ExprBuilder struct {
	memo  []*logic.Expr
	stamp []uint64
	epoch uint64
}

// Expr reconstructs the Boolean expression computed by node n over
// the PI names of its cone, stopping at the given boundary nodes
// (which are treated as variables named by boundary[node]). Used for
// LUT function extraction and verification.
func (b *ExprBuilder) Expr(g *Graph, n Node, boundary map[Node]string) (*logic.Expr, error) {
	if len(b.memo) < g.NumNodes() {
		b.memo = append(b.memo, make([]*logic.Expr, g.NumNodes()-len(b.memo))...)
		b.stamp = append(b.stamp, make([]uint64, g.NumNodes()-len(b.stamp))...)
	}
	b.epoch++
	return b.rec(g, n, boundary)
}

func (b *ExprBuilder) rec(g *Graph, x Node, boundary map[Node]string) (*logic.Expr, error) {
	if b.stamp[x] == b.epoch {
		return b.memo[x], nil
	}
	if name, ok := boundary[x]; ok {
		e := logic.Variable(name)
		b.stamp[x], b.memo[x] = b.epoch, e
		return e, nil
	}
	var e *logic.Expr
	switch g.KindOf(x) {
	case PI:
		e = logic.Variable(g.piName[x])
	case Inv:
		k, err := b.rec(g, g.fanin0[x], boundary)
		if err != nil {
			return nil, err
		}
		e = logic.Not(k)
	case Nand2:
		a, err := b.rec(g, g.fanin0[x], boundary)
		if err != nil {
			return nil, err
		}
		c, err := b.rec(g, g.fanin1[x], boundary)
		if err != nil {
			return nil, err
		}
		e = logic.Not(logic.And(a, c))
	default:
		return nil, fmt.Errorf("subject: invalid node kind %v", g.KindOf(x))
	}
	b.stamp[x], b.memo[x] = b.epoch, e
	return e, nil
}

// Expr is the one-shot convenience form of ExprBuilder.Expr.
func Expr(g *Graph, n Node, boundary map[Node]string) (*logic.Expr, error) {
	var b ExprBuilder
	return b.Expr(g, n, boundary)
}

// strashTable is an open-addressed hash table from packed structural
// keys to nodes. Keys are never 0 (see the key constructors), so 0
// marks an empty slot; there are no deletions.
type strashTable struct {
	keys []uint64
	vals []Node
	n    int
}

// strashInvKey packs an inverter key: bit 63 tags inverters, the low
// bits hold the fanin handle.
func strashInvKey(x Node) uint64 { return 1<<63 | uint64(uint32(x)) }

// strashNandKey packs a NAND key from the ordered fanin pair (a <= b,
// both < 2^31, so the two fields cannot collide with the inverter
// tag). The pair (0,0) never reaches the table: NAND(x,x) folds to
// NOT(x) before hashing, so key 0 stays free as the empty marker.
func strashNandKey(a, b Node) uint64 { return uint64(uint32(a))<<31 | uint64(uint32(b)) }

// strashHash finalizes a key (splitmix64 mixer).
func strashHash(k uint64) uint64 {
	k ^= k >> 30
	k *= 0xbf58476d1ce4e5b9
	k ^= k >> 27
	k *= 0x94d049bb133111eb
	k ^= k >> 31
	return k
}

func (t *strashTable) lookup(key uint64) (Node, bool) {
	if len(t.keys) == 0 {
		return None, false
	}
	mask := uint64(len(t.keys) - 1)
	for i := strashHash(key) & mask; ; i = (i + 1) & mask {
		switch t.keys[i] {
		case key:
			return t.vals[i], true
		case 0:
			return None, false
		}
	}
}

func (t *strashTable) insert(key uint64, v Node) {
	if 4*(t.n+1) >= 3*len(t.keys) { // load factor 3/4
		t.grow()
	}
	mask := uint64(len(t.keys) - 1)
	for i := strashHash(key) & mask; ; i = (i + 1) & mask {
		if t.keys[i] == 0 {
			t.keys[i], t.vals[i] = key, v
			t.n++
			return
		}
		if t.keys[i] == key {
			t.vals[i] = v
			return
		}
	}
}

func (t *strashTable) grow() {
	newCap := 64
	if len(t.keys) > 0 {
		newCap = 2 * len(t.keys)
	}
	// Keep capacity a power of two for mask arithmetic.
	if newCap&(newCap-1) != 0 {
		newCap = 1 << bits.Len(uint(newCap))
	}
	oldKeys, oldVals := t.keys, t.vals
	t.keys = make([]uint64, newCap)
	t.vals = make([]Node, newCap)
	mask := uint64(newCap - 1)
	for i, k := range oldKeys {
		if k == 0 {
			continue
		}
		for j := strashHash(k) & mask; ; j = (j + 1) & mask {
			if t.keys[j] == 0 {
				t.keys[j], t.vals[j] = k, oldVals[i]
				break
			}
		}
	}
}
