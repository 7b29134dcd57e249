// Package network implements the Boolean-network representation used
// throughout the mapper: a directed acyclic graph of logic nodes with
// primary inputs, primary outputs, and (for the sequential extension)
// edge-triggered latches on a single clock.
//
// Node functions are logic.Expr values over the names of the node's
// fanins. Latches break combinational cycles: a latch output behaves
// as a pseudo primary input and a latch input as a pseudo primary
// output of the combinational portion.
package network

import (
	"fmt"
	"slices"
	"strings"

	"dagcover/internal/logic"
)

// Node is a vertex of a Boolean network.
type Node struct {
	Name    string
	Fanins  []*Node
	Fanouts []*Node
	// Func is the node function over the fanin names. It is nil for
	// primary inputs and latch outputs.
	Func *logic.Expr
	// IsInput marks primary inputs.
	IsInput bool
}

// NumFanins returns the in-degree of n.
func (n *Node) NumFanins() int { return len(n.Fanins) }

// Latch is an edge-triggered storage element: at each clock edge the
// value of Input is transferred to Output. Init is the initial value.
type Latch struct {
	Input  *Node
	Output *Node // behaves as a pseudo primary input
	Init   bool
}

// Network is a Boolean network.
type Network struct {
	Name    string
	nodes   map[string]*Node
	order   []*Node // insertion order, for deterministic iteration
	inputs  []*Node
	outputs []*Node
	outSet  map[*Node]bool
	latches []*Latch
	latchOf map[*Node]*Latch // keyed by latch output node
}

// New returns an empty network with the given name.
func New(name string) *Network {
	return &Network{
		Name:    name,
		nodes:   map[string]*Node{},
		outSet:  map[*Node]bool{},
		latchOf: map[*Node]*Latch{},
	}
}

// AddInput creates a primary input node.
func (nw *Network) AddInput(name string) (*Node, error) {
	if _, dup := nw.nodes[name]; dup {
		return nil, fmt.Errorf("network: duplicate node name %q", name)
	}
	n := &Node{Name: name, IsInput: true}
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	nw.inputs = append(nw.inputs, n)
	return n, nil
}

// AddNode creates an internal node computing fn over the named fanins.
// Every fanin must already exist, and every variable of fn must be one
// of the fanin names.
func (nw *Network) AddNode(name string, fanins []string, fn *logic.Expr) (*Node, error) {
	if _, dup := nw.nodes[name]; dup {
		return nil, fmt.Errorf("network: duplicate node name %q", name)
	}
	if fn == nil {
		return nil, fmt.Errorf("network: node %q has no function", name)
	}
	faninNodes := make([]*Node, len(fanins))
	for i, f := range fanins {
		fi, ok := nw.nodes[f]
		if !ok {
			return nil, fmt.Errorf("network: node %q references unknown fanin %q", name, f)
		}
		if slices.Contains(faninNodes[:i], fi) {
			return nil, fmt.Errorf("network: node %q lists fanin %q twice", name, f)
		}
		faninNodes[i] = fi
	}
	for _, v := range fn.Vars() {
		if !slices.Contains(fanins, v) {
			return nil, fmt.Errorf("network: node %q function uses %q which is not a fanin", name, v)
		}
	}
	n := &Node{Name: name, Fanins: faninNodes, Func: fn}
	for _, fi := range faninNodes {
		fi.Fanouts = append(fi.Fanouts, n)
	}
	nw.nodes[name] = n
	nw.order = append(nw.order, n)
	return n, nil
}

// MarkOutput declares an existing node to be a primary output.
func (nw *Network) MarkOutput(name string) error {
	n, ok := nw.nodes[name]
	if !ok {
		return fmt.Errorf("network: cannot mark unknown node %q as output", name)
	}
	if nw.outSet[n] {
		return nil
	}
	nw.outSet[n] = true
	nw.outputs = append(nw.outputs, n)
	return nil
}

// AddLatch creates a latch from the named input node to a fresh
// pseudo-input node with the given name.
func (nw *Network) AddLatch(inputName, outputName string, init bool) (*Latch, error) {
	if _, ok := nw.nodes[inputName]; !ok {
		return nil, fmt.Errorf("network: latch input %q does not exist", inputName)
	}
	if _, err := nw.AddLatchOutput(outputName); err != nil {
		return nil, err
	}
	return nw.ConnectLatch(inputName, outputName, init)
}

// AddLatchOutput creates a latch-output pseudo input before its
// driving logic exists, enabling cyclic sequential circuits; it must
// later be completed with ConnectLatch.
func (nw *Network) AddLatchOutput(name string) (*Node, error) {
	if _, dup := nw.nodes[name]; dup {
		return nil, fmt.Errorf("network: duplicate node name %q", name)
	}
	// A latch output is a pseudo input of the combinational portion:
	// no function, no fanins, but not listed among the primary inputs.
	out := &Node{Name: name}
	nw.nodes[name] = out
	nw.order = append(nw.order, out)
	return out, nil
}

// ConnectLatch completes a latch whose output node was created with
// AddLatchOutput by attaching its input node.
func (nw *Network) ConnectLatch(inputName, outputName string, init bool) (*Latch, error) {
	in, ok := nw.nodes[inputName]
	if !ok {
		return nil, fmt.Errorf("network: latch input %q does not exist", inputName)
	}
	out, ok := nw.nodes[outputName]
	if !ok {
		return nil, fmt.Errorf("network: latch output %q does not exist", outputName)
	}
	if out.Func != nil || out.IsInput {
		return nil, fmt.Errorf("network: latch output %q is not a pseudo input", outputName)
	}
	if nw.latchOf[out] != nil {
		return nil, fmt.Errorf("network: latch output %q already connected", outputName)
	}
	l := &Latch{Input: in, Output: out, Init: init}
	nw.latches = append(nw.latches, l)
	nw.latchOf[out] = l
	return l, nil
}

// Node returns the node with the given name, or nil.
func (nw *Network) Node(name string) *Node { return nw.nodes[name] }

// Inputs returns the primary inputs in creation order.
func (nw *Network) Inputs() []*Node { return nw.inputs }

// Outputs returns the primary outputs in declaration order.
func (nw *Network) Outputs() []*Node { return nw.outputs }

// Latches returns the latches in creation order.
func (nw *Network) Latches() []*Latch { return nw.latches }

// LatchFor returns the latch whose output is n, or nil.
func (nw *Network) LatchFor(n *Node) *Latch { return nw.latchOf[n] }

// Nodes returns all nodes in creation order.
func (nw *Network) Nodes() []*Node { return nw.order }

// NumNodes returns the total node count, including inputs.
func (nw *Network) NumNodes() int { return len(nw.order) }

// NumGates returns the number of internal (function) nodes.
func (nw *Network) NumGates() int {
	n := 0
	for _, nd := range nw.order {
		if nd.Func != nil {
			n++
		}
	}
	return n
}

// sourceLike reports whether n has no combinational fanins (PI or
// latch output).
func sourceLike(n *Node) bool { return n.Func == nil }

// TopoSort returns the nodes in a topological order of the
// combinational graph (latch outputs count as sources, latch inputs
// are ordinary nodes). It reports an error on a combinational cycle.
func (nw *Network) TopoSort() ([]*Node, error) {
	indeg := make(map[*Node]int, len(nw.order))
	queue := make([]*Node, 0, len(nw.order))
	for _, n := range nw.order {
		indeg[n] = len(n.Fanins)
		if len(n.Fanins) == 0 { // sources and zero-fanin (constant) nodes
			queue = append(queue, n)
		}
	}
	out := make([]*Node, 0, len(nw.order))
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, fo := range n.Fanouts {
			indeg[fo]--
			if indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(out) != len(nw.order) {
		cyc := make([]string, 0, 8)
		for _, n := range nw.order {
			if indeg[n] > 0 {
				cyc = append(cyc, n.Name)
				if len(cyc) == 8 {
					break
				}
			}
		}
		return nil, fmt.Errorf("network %q: combinational cycle through %s", nw.Name, strings.Join(cyc, ", "))
	}
	return out, nil
}

// Levels returns each node's depth: sources are level 0 and every
// other node is 1 + max fanin level.
func (nw *Network) Levels() (map[*Node]int, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	lv := make(map[*Node]int, len(topo))
	for _, n := range topo {
		if sourceLike(n) {
			lv[n] = 0
			continue
		}
		max := 0
		for _, fi := range n.Fanins {
			if lv[fi] > max {
				max = lv[fi]
			}
		}
		lv[n] = max + 1
	}
	return lv, nil
}

// Depth returns the maximum level over all nodes.
func (nw *Network) Depth() (int, error) {
	lv, err := nw.Levels()
	if err != nil {
		return 0, err
	}
	max := 0
	for _, d := range lv {
		if d > max {
			max = d
		}
	}
	return max, nil
}

// Check validates internal consistency: fanin/fanout symmetry, function
// supports, output registration, and acyclicity.
func (nw *Network) Check() error {
	for _, n := range nw.order {
		if n.Func == nil && len(n.Fanins) != 0 {
			return fmt.Errorf("network: source node %q has fanins", n.Name)
		}
		if n.Func == nil && !n.IsInput && nw.latchOf[n] == nil {
			return fmt.Errorf("network: latch output %q was never connected", n.Name)
		}
		for _, fi := range n.Fanins {
			if nw.nodes[fi.Name] != fi {
				return fmt.Errorf("network: node %q has foreign fanin %q", n.Name, fi.Name)
			}
			found := false
			for _, fo := range fi.Fanouts {
				if fo == n {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("network: fanout list of %q is missing %q", fi.Name, n.Name)
			}
		}
		if n.Func != nil {
			for _, v := range n.Func.Vars() {
				if !slices.ContainsFunc(n.Fanins, func(fi *Node) bool { return fi.Name == v }) {
					return fmt.Errorf("network: node %q function uses non-fanin %q", n.Name, v)
				}
			}
		}
	}
	if len(nw.outputs) == 0 && len(nw.latches) == 0 {
		return fmt.Errorf("network %q: no primary outputs", nw.Name)
	}
	_, err := nw.TopoSort()
	return err
}

// TransitiveFanin returns the set of nodes in the transitive fanin
// cone of root, including root itself.
func TransitiveFanin(root *Node) map[*Node]bool {
	seen := map[*Node]bool{}
	stack := []*Node{root}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[n] {
			continue
		}
		seen[n] = true
		stack = append(stack, n.Fanins...)
	}
	return seen
}

// Sweep removes internal nodes that neither reach a primary output nor
// a latch input. It returns the number of nodes removed.
func (nw *Network) Sweep() int {
	live := map[*Node]bool{}
	var roots []*Node
	roots = append(roots, nw.outputs...)
	for _, l := range nw.latches {
		roots = append(roots, l.Input)
	}
	for _, r := range roots {
		for n := range TransitiveFanin(r) {
			live[n] = true
		}
	}
	removed := 0
	keep := nw.order[:0]
	for _, n := range nw.order {
		if live[n] || n.Func == nil { // keep all sources
			keep = append(keep, n)
			continue
		}
		removed++
		delete(nw.nodes, n.Name)
		for _, fi := range n.Fanins {
			fi.Fanouts = removeNode(fi.Fanouts, n)
		}
	}
	nw.order = keep
	return removed
}

func removeNode(s []*Node, n *Node) []*Node {
	out := s[:0]
	for _, x := range s {
		if x != n {
			out = append(out, x)
		}
	}
	return out
}

// Stats summarizes a network.
type Stats struct {
	Inputs, Outputs, Gates, Latches int
	Depth                           int
	MaxFanin, MaxFanout             int
}

// Stats computes summary statistics.
func (nw *Network) Stats() (Stats, error) {
	d, err := nw.Depth()
	if err != nil {
		return Stats{}, err
	}
	s := Stats{
		Inputs:  len(nw.inputs),
		Outputs: len(nw.outputs),
		Gates:   nw.NumGates(),
		Latches: len(nw.latches),
		Depth:   d,
	}
	for _, n := range nw.order {
		if len(n.Fanins) > s.MaxFanin {
			s.MaxFanin = len(n.Fanins)
		}
		if len(n.Fanouts) > s.MaxFanout {
			s.MaxFanout = len(n.Fanouts)
		}
	}
	return s, nil
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d gates=%d latches=%d depth=%d maxfanin=%d maxfanout=%d",
		s.Inputs, s.Outputs, s.Gates, s.Latches, s.Depth, s.MaxFanin, s.MaxFanout)
}

// ReattachLatches rebuilds a mapped combinational network with the
// original circuit's latches reconnected: the mapped network exposes
// each latch input as an output port and each latch output as a free
// input, as a subject graph built from orig does.
func ReattachLatches(mapped, orig *Network) (*Network, error) {
	latchOut := map[string]bool{}
	for _, l := range orig.Latches() {
		latchOut[l.Output.Name] = true
	}
	out := New(mapped.Name + "_seq")
	for _, pi := range mapped.Inputs() {
		if latchOut[pi.Name] {
			if _, err := out.AddLatchOutput(pi.Name); err != nil {
				return nil, err
			}
			continue
		}
		if _, err := out.AddInput(pi.Name); err != nil {
			return nil, err
		}
	}
	topo, err := mapped.TopoSort()
	if err != nil {
		return nil, err
	}
	for _, n := range topo {
		if n.Func == nil {
			continue
		}
		names := make([]string, len(n.Fanins))
		for i, fi := range n.Fanins {
			names[i] = fi.Name
		}
		if _, err := out.AddNode(n.Name, names, n.Func.Clone()); err != nil {
			return nil, err
		}
	}
	for _, l := range orig.Latches() {
		if _, err := out.ConnectLatch(l.Input.Name, l.Output.Name, l.Init); err != nil {
			return nil, err
		}
	}
	for _, o := range orig.Outputs() {
		if err := out.MarkOutput(o.Name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Clone returns a deep copy of the network (sharing no nodes).
func (nw *Network) Clone() *Network {
	c := New(nw.Name)
	for _, n := range nw.order {
		if n.IsInput {
			if _, err := c.AddInput(n.Name); err != nil {
				panic(err) // cannot happen: names were unique
			}
		}
	}
	// Latch outputs must exist before nodes that read them; create
	// placeholder pseudo inputs now and fix latch records at the end.
	for _, l := range nw.latches {
		if _, dup := c.nodes[l.Output.Name]; dup {
			panic(fmt.Sprintf("network: Clone: duplicate latch output %q", l.Output.Name))
		}
		ph := &Node{Name: l.Output.Name}
		c.nodes[ph.Name] = ph
		c.order = append(c.order, ph)
	}
	topo, err := nw.TopoSort()
	if err != nil {
		panic(fmt.Sprintf("network: Clone of cyclic network: %v", err))
	}
	for _, n := range topo {
		if n.Func == nil {
			continue
		}
		names := make([]string, len(n.Fanins))
		for i, fi := range n.Fanins {
			names[i] = fi.Name
		}
		if _, err := c.AddNode(n.Name, names, n.Func.Clone()); err != nil {
			panic(err)
		}
	}
	for _, o := range nw.outputs {
		if err := c.MarkOutput(o.Name); err != nil {
			panic(err)
		}
	}
	for _, l := range nw.latches {
		out := c.nodes[l.Output.Name]
		cl := &Latch{Input: c.nodes[l.Input.Name], Output: out, Init: l.Init}
		c.latches = append(c.latches, cl)
		c.latchOf[out] = cl
	}
	return c
}
