// Package verify checks functional equivalence between circuits by
// bit-parallel simulation of their compiled programs: exhaustively for
// small input counts and with random vectors otherwise. Every mapped
// netlist produced in this repository's tests and tools is validated
// against its source network with these routines.
package verify

import (
	"fmt"
	"math/rand"

	"dagcover/internal/mapping"
	"dagcover/internal/network"
)

// ExhaustiveLimit is the largest input count verified exhaustively
// (2^14 rows = 256 simulation batches).
const ExhaustiveLimit = 14

// Options tunes the equivalence check.
type Options struct {
	// Rounds is the number of random 64-vector batches when the check
	// is not exhaustive (default 64).
	Rounds int
	// Seed makes random vectors reproducible.
	Seed int64
}

func (o *Options) defaults() {
	if o.Rounds == 0 {
		o.Rounds = 64
	}
}

// Networks verifies that every primary output of b computes the same
// function as the like-named node of a, over the sources of a. The
// source sets must agree.
func Networks(a, b *network.Network, opt Options) error {
	opt.defaults()
	var sources []string
	for _, n := range b.Nodes() {
		if n.Func == nil {
			sources = append(sources, n.Name)
		}
	}
	outputs := make([]string, len(b.Outputs()))
	for i, o := range b.Outputs() {
		outputs[i] = o.Name
	}
	ref, err := compileReference(a, sources, outputs)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	cb, err := network.Compile(b, b.Outputs())
	if err != nil {
		return fmt.Errorf("verify: candidate: %v", err)
	}
	cand := &circuit{prog: cb.Program, sourceSlots: cb.SourceSlots, outputs: outputs, outputSlots: cb.KeptSlots}
	for _, n := range cb.Sources {
		cand.sources = append(cand.sources, n.Name)
	}
	return check(ref, cand, opt)
}

// Mapped verifies a mapped netlist against the original network. Each
// netlist output port (primary output or latch input) must match the
// like-named node of the original.
func Mapped(orig *network.Network, nl *mapping.Netlist, opt Options) error {
	opt.defaults()
	if err := nl.Check(); err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	cand, err := compileNetlist(nl)
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	ref, err := compileReference(orig, cand.sources, cand.outputs)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	return check(ref, cand, opt)
}

// circuit is a compiled candidate: its free inputs and its compared
// outputs, by name and slot.
type circuit struct {
	prog        *network.Program
	sources     []string
	sourceSlots []network.Slot
	outputs     []string
	outputSlots []network.Slot
}

// reference is the compiled reference network: its free inputs in
// TopoSort order, which is the order random vectors are drawn in, and
// the slots of the nodes the candidate reads or is compared against.
type reference struct {
	prog    *network.Program
	sources []network.Slot
	named   map[string]network.Slot
}

// compileReference compiles a, keeping the values of the nodes named
// in names.
func compileReference(a *network.Network, names ...[]string) (*reference, error) {
	var keep []*network.Node
	for _, list := range names {
		for _, name := range list {
			if n := a.Node(name); n != nil {
				keep = append(keep, n)
			}
		}
	}
	c, err := network.Compile(a, keep)
	if err != nil {
		return nil, err
	}
	named := make(map[string]network.Slot, len(keep))
	for i, n := range keep {
		named[n.Name] = c.KeptSlots[i]
	}
	return &reference{prog: c.Program, sources: c.SourceSlots, named: named}, nil
}

// compileNetlist compiles a checked netlist straight from its cells:
// each gate's pins are bound to the slots of the cell's input nets.
// Output ports are deduplicated by name, and a port named apart from
// its net may not reuse a net's or an earlier port's name.
func compileNetlist(nl *mapping.Netlist) (*circuit, error) {
	readers := make(map[string]int, len(nl.Cells))
	for _, c := range nl.Cells {
		for _, in := range c.Inputs {
			readers[in]++
		}
	}
	kept := make(map[string]bool, len(nl.Outputs))
	for _, p := range nl.Outputs {
		kept[p.Net] = true
	}
	b := network.NewBuilder(len(nl.Cells))
	cand := &circuit{sources: nl.Inputs}
	slot := make(map[string]network.Slot, len(nl.Inputs)+len(nl.Cells))
	for _, in := range nl.Inputs {
		s := b.Input()
		slot[in] = s
		cand.sourceSlots = append(cand.sourceSlots, s)
	}
	var (
		vars []string
		args []network.Slot
	)
	for _, c := range nl.Cells {
		vars, args = vars[:0], args[:0]
		for pin, in := range c.Inputs {
			vars = append(vars, c.Gate.Pins[pin].Name)
			args = append(args, slot[in])
		}
		s, err := b.Node(c.Gate.Expr, vars, args, readers[c.Output], kept[c.Output])
		if err != nil {
			return nil, fmt.Errorf("network: node %q %v", c.Output, err)
		}
		for _, a := range args {
			b.Release(a)
		}
		slot[c.Output] = s
	}
	ports := make(map[string]bool, len(nl.Outputs))
	for _, p := range nl.Outputs {
		if _, isNet := slot[p.Name]; p.Name != p.Net && (isNet || ports[p.Name]) {
			return nil, fmt.Errorf("mapping: output port %q collides with a net name", p.Name)
		}
		if ports[p.Name] {
			continue
		}
		ports[p.Name] = true
		cand.outputs = append(cand.outputs, p.Name)
		cand.outputSlots = append(cand.outputSlots, slot[p.Net])
	}
	cand.prog = b.Program()
	return cand, nil
}

// check binds the candidate's sources to the reference's like-named
// nodes and compares its outputs against the reference's, a block of
// 64-vector words per pass: every input assignment when the reference
// has at most ExhaustiveLimit sources, otherwise opt.Rounds seeded
// random words. It reports the first failing word and, within it, the
// first failing output.
func check(ref *reference, cand *circuit, opt Options) error {
	type pair struct{ ref, cand network.Slot }
	feeds := make([]pair, len(cand.sources))
	for i, name := range cand.sources {
		s, ok := ref.named[name]
		if !ok {
			return fmt.Errorf("verify: candidate source %q unknown to reference", name)
		}
		feeds[i] = pair{s, cand.sourceSlots[i]}
	}
	compared := make([]pair, len(cand.outputs))
	for i, name := range cand.outputs {
		s, ok := ref.named[name]
		if !ok {
			return fmt.Errorf("verify: candidate output %q unknown to reference", name)
		}
		compared[i] = pair{s, cand.outputSlots[i]}
	}
	rf, cf := ref.prog.NewFrame(), cand.prog.NewFrame()
	width := len(rf.Words(network.Zero))
	// pass evaluates both circuits on the written source words and
	// returns the first of the first n words on which an output
	// differs, or nil.
	pass := func(n int) (int, error) {
		ref.prog.Run(rf)
		for _, p := range feeds {
			copy(cf.Words(p.cand), rf.Words(p.ref))
		}
		cand.prog.Run(cf)
		for w := 0; w < n; w++ {
			for i, p := range compared {
				va, vb := rf.Words(p.ref)[w], cf.Words(p.cand)[w]
				if va != vb {
					return w, fmt.Errorf("verify: output %q differs (vector bit %d): reference %x, candidate %x",
						cand.outputs[i], firstDiff(va, vb), va, vb)
				}
			}
		}
		return 0, nil
	}

	if len(ref.sources) <= ExhaustiveLimit {
		words := (1<<len(ref.sources) + 63) / 64
		for w0 := 0; w0 < words; w0 += width {
			n := min(width, words-w0)
			for i, s := range ref.sources {
				in := rf.Words(s)
				for k := 0; k < n; k++ {
					in[k] = inputPattern(i, (w0+k)*64)
				}
			}
			if w, err := pass(n); err != nil {
				return fmt.Errorf("%v (exhaustive batch %d)", err, w0+w)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for r0 := 0; r0 < opt.Rounds; r0 += width {
		n := min(width, opt.Rounds-r0)
		for k := 0; k < n; k++ {
			for _, s := range ref.sources {
				rf.Words(s)[k] = rng.Uint64()
			}
		}
		if w, err := pass(n); err != nil {
			return fmt.Errorf("%v (random round %d, seed %d)", err, r0+w, opt.Seed)
		}
	}
	return nil
}

// inputPattern gives the canonical truth-table column of variable i
// restricted to the 64 rows starting at base.
func inputPattern(i, base int) uint64 {
	if i >= 6 {
		if base&(1<<i) != 0 {
			return ^uint64(0)
		}
		return 0
	}
	masks := [6]uint64{
		0xAAAAAAAAAAAAAAAA,
		0xCCCCCCCCCCCCCCCC,
		0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00,
		0xFFFF0000FFFF0000,
		0xFFFFFFFF00000000,
	}
	return masks[i]
}

func firstDiff(a, b uint64) int {
	d := a ^ b
	for i := 0; i < 64; i++ {
		if d>>uint(i)&1 == 1 {
			return i
		}
	}
	return -1
}
