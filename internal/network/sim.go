package network

import (
	"fmt"
	"slices"

	"dagcover/internal/logic"
)

// blockWords is the number of 64-bit words a slot holds: one pass of a
// Program evaluates 64*blockWords input vectors, so instruction
// dispatch is paid once per block rather than once per word.
const blockWords = 8

// Slot indexes one value of a Program: a block of packed words.
type Slot int32

// The two constant slots every Program starts with.
const (
	Zero Slot = 0 // all bits clear
	One  Slot = 1 // all bits set
)

type opcode uint8

const (
	opNot opcode = iota
	opAnd
	opOr
	opXor
)

// instr is one three-address operation: dst = a op b (opNot ignores b).
type instr struct {
	op        opcode
	dst, a, b Slot
}

// Program is straight-line three-address code over slots. A caller
// writes the source slots of a Frame, runs the program on it, and reads
// the slots it asked the Builder to keep.
type Program struct {
	code  []instr
	slots int
}

// Frame holds the values of one pass: a block of words per slot.
type Frame struct{ vals [][blockWords]uint64 }

// NewFrame returns a frame for p with its constant slots filled.
func (p *Program) NewFrame() *Frame {
	f := &Frame{vals: make([][blockWords]uint64, p.slots)}
	for i := range f.vals[One] {
		f.vals[One][i] = ^uint64(0)
	}
	return f
}

// Words returns slot s's block. Word w of every slot belongs to the
// same 64 vectors; the block length is the number of words one pass
// evaluates.
func (f *Frame) Words(s Slot) []uint64 { return f.vals[s][:] }

// Run evaluates p on the source words already written into f.
func (p *Program) Run(f *Frame) {
	v := f.vals
	for _, in := range p.code {
		d, a, b := &v[in.dst], &v[in.a], &v[in.b]
		switch in.op {
		case opNot:
			for i := range d {
				d[i] = ^a[i]
			}
		case opAnd:
			for i := range d {
				d[i] = a[i] & b[i]
			}
		case opOr:
			for i := range d {
				d[i] = a[i] | b[i]
			}
		case opXor:
			for i := range d {
				d[i] = a[i] ^ b[i]
			}
		}
	}
}

// Builder compiles node functions into a Program in topological order.
// A value's slot is reused once its last reader has been compiled and
// released, and each expression's temporaries are reused as soon as
// they are consumed, so a program's slot count follows the circuit's
// live width, not its size.
type Builder struct {
	prog Program
	refs []int32 // per slot: reads still to be released, or pinned (<0)
	temp []bool  // per slot: an unfinished expression's temporary
	free []Slot
}

// NewBuilder returns a builder holding only the constant slots, with
// room for about nodes compiled nodes.
func NewBuilder(nodes int) *Builder {
	return &Builder{
		prog: Program{code: make([]instr, 0, 2*nodes), slots: 2},
		refs: []int32{pinned, pinned},
		temp: []bool{false, false},
	}
}

// Program returns the compiled program.
func (b *Builder) Program() *Program { return &b.prog }

// Input returns a slot the caller writes before each run. Input slots
// are never reused, so no source overwrites another.
func (b *Builder) Input() Slot {
	s := b.alloc()
	b.refs[s] = pinned
	return s
}

// pinned marks a slot that is never reused: a constant, an input or a
// kept value.
const pinned = -1

// Node compiles e, whose variable vars[i] is bound to args[i] (the
// first binding of a name wins), and returns the slot of its value.
// readers is the number of later Release calls the value will get;
// keep pins the slot so it still holds the value after a run. A bare
// variable or constant emits nothing: the node shares that slot. Node
// does not release args; the caller releases each read once the node
// is compiled.
func (b *Builder) Node(e *logic.Expr, vars []string, args []Slot, readers int, keep bool) (Slot, error) {
	s, ok := b.expr(e, vars, args)
	if !ok {
		for _, v := range e.Vars() {
			if !slices.Contains(vars, v) {
				return 0, fmt.Errorf("function uses %q which is not a fanin", v)
			}
		}
		return 0, fmt.Errorf("function has an invalid operator")
	}
	b.temp[s] = false
	switch {
	case b.refs[s] == pinned:
	case keep:
		b.refs[s] = pinned
	default:
		// A fresh temporary has no reads yet; a shared slot gains the
		// node's readers.
		if b.refs[s] += int32(readers); b.refs[s] == 0 {
			b.free = append(b.free, s) // nobody reads the value
		}
	}
	return s, nil
}

// Release records one read of s as compiled.
func (b *Builder) Release(s Slot) {
	if b.refs[s] == pinned {
		return
	}
	if b.refs[s]--; b.refs[s] == 0 {
		b.free = append(b.free, s)
	}
}

// expr emits e's code and returns its slot: a temporary for an
// operator, the bound or constant slot otherwise. ok is false on an
// unbound variable or an unknown operator.
func (b *Builder) expr(e *logic.Expr, vars []string, args []Slot) (Slot, bool) {
	var op opcode
	switch e.Op {
	case logic.OpConst:
		if e.Const {
			return One, true
		}
		return Zero, true
	case logic.OpVar:
		for i, x := range vars {
			if x == e.Var {
				return args[i], true
			}
		}
		return 0, false
	case logic.OpNot:
		a, ok := b.expr(e.Kids[0], vars, args)
		if !ok {
			return 0, false
		}
		d := b.target(a, a)
		b.prog.code = append(b.prog.code, instr{op: opNot, dst: d, a: a, b: a})
		return d, true
	case logic.OpAnd:
		op = opAnd
	case logic.OpOr:
		op = opOr
	case logic.OpXor:
		op = opXor
	default:
		return 0, false
	}
	if len(e.Kids) == 0 {
		if op == opAnd {
			return One, true
		}
		return Zero, true
	}
	acc, ok := b.expr(e.Kids[0], vars, args)
	for _, k := range e.Kids[1:] {
		if !ok {
			return 0, false
		}
		var c Slot
		if c, ok = b.expr(k, vars, args); !ok {
			return 0, false
		}
		d := b.target(acc, c)
		b.prog.code = append(b.prog.code, instr{op: op, dst: d, a: acc, b: c})
		acc = d
	}
	return acc, ok
}

// target returns the destination of an operation reading a and c: a
// temporary operand is overwritten in place (the other, if also a
// temporary, is freed, as this operation is its last read), otherwise
// a fresh temporary.
func (b *Builder) target(a, c Slot) Slot {
	switch {
	case b.temp[a]:
		if c != a && b.temp[c] {
			b.temp[c] = false
			b.free = append(b.free, c)
		}
		return a
	case b.temp[c]:
		return c
	}
	d := b.alloc()
	b.temp[d] = true
	return d
}

func (b *Builder) alloc() Slot {
	if n := len(b.free); n > 0 {
		s := b.free[n-1]
		b.free = b.free[:n-1]
		return s
	}
	s := Slot(b.prog.slots)
	b.prog.slots++
	b.refs = append(b.refs, 0)
	b.temp = append(b.temp, false)
	return s
}

// Compiled is a network compiled to a Program.
type Compiled struct {
	*Program
	// Sources are the free inputs (primary inputs and latch outputs)
	// in TopoSort order, and SourceSlots their slots.
	Sources     []*Node
	SourceSlots []Slot
	// KeptSlots holds the slots of the nodes passed to Compile as keep,
	// in the same order.
	KeptSlots []Slot
}

// Compile compiles nw. After a run, the slots of the nodes in keep hold
// their values; any other node's slot may have been reused.
func Compile(nw *Network, keep []*Node) (*Compiled, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	kept := make(map[*Node]bool, len(keep))
	for _, n := range keep {
		kept[n] = true
	}
	c, slot, err := compile(topo, func(n *Node) bool { return kept[n] })
	if err != nil {
		return nil, err
	}
	c.KeptSlots = make([]Slot, len(keep))
	for i, n := range keep {
		c.KeptSlots[i] = slot[n]
	}
	return c, nil
}

// compile compiles topo, a topological order, and returns every node's
// slot (meaningful after a run only for kept nodes and sources).
func compile(topo []*Node, keep func(*Node) bool) (*Compiled, map[*Node]Slot, error) {
	b := NewBuilder(len(topo))
	c := &Compiled{}
	slot := make(map[*Node]Slot, len(topo))
	var (
		vars []string
		args []Slot
	)
	for _, n := range topo {
		if n.Func == nil {
			s := b.Input()
			slot[n] = s
			c.Sources = append(c.Sources, n)
			c.SourceSlots = append(c.SourceSlots, s)
			continue
		}
		vars, args = vars[:0], args[:0]
		for _, fi := range n.Fanins {
			vars = append(vars, fi.Name)
			args = append(args, slot[fi])
		}
		s, err := b.Node(n.Func, vars, args, len(n.Fanouts), keep(n))
		if err != nil {
			return nil, nil, fmt.Errorf("network: node %q %v", n.Name, err)
		}
		for _, a := range args {
			b.Release(a)
		}
		slot[n] = s
	}
	c.Program = b.Program()
	return c, slot, nil
}

// Simulator evaluates a combinational network 64 input vectors at a
// time on its compiled Program. Latch outputs are treated as free
// inputs (their values must be supplied alongside the primary inputs).
type Simulator struct {
	nw    *Network
	c     *Compiled
	nodes []*Node // every node, in topological order
	slots []Slot  // parallel to nodes
}

// NewSimulator prepares a simulator; it fails on cyclic networks.
func NewSimulator(nw *Network) (*Simulator, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	c, slot, err := compile(topo, func(*Node) bool { return true })
	if err != nil {
		return nil, err
	}
	s := &Simulator{nw: nw, c: c, nodes: topo, slots: make([]Slot, len(topo))}
	for i, n := range topo {
		s.slots[i] = slot[n]
	}
	return s, nil
}

// Run evaluates the network on 64 parallel vectors. inputs maps each
// source node name (primary input or latch output) to a 64-bit packed
// value. It returns the packed value of every node.
func (s *Simulator) Run(inputs map[string]uint64) (map[string]uint64, error) {
	f := s.c.NewFrame()
	for i, n := range s.c.Sources {
		v, ok := inputs[n.Name]
		if !ok {
			return nil, fmt.Errorf("network: simulation input %q not supplied", n.Name)
		}
		f.Words(s.c.SourceSlots[i])[0] = v
	}
	s.c.Run(f)
	values := make(map[string]uint64, len(s.nodes))
	for i, n := range s.nodes {
		values[n.Name] = f.Words(s.slots[i])[0]
	}
	return values, nil
}

// RunOutputs evaluates the network and returns only the primary-output
// values (packed 64-way).
func (s *Simulator) RunOutputs(inputs map[string]uint64) (map[string]uint64, error) {
	all, err := s.Run(inputs)
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(s.nw.Outputs()))
	for _, o := range s.nw.Outputs() {
		out[o.Name] = all[o.Name]
	}
	return out, nil
}
