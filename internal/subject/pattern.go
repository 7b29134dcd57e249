package subject

import (
	"fmt"

	"dagcover/internal/genlib"
)

// Pattern is a library gate decomposed into a NAND2/INV graph. Leaves
// (PI nodes of the pattern graph) correspond one-to-one to gate input
// pins; repeated literals of the same pin share a single leaf, so
// patterns are leaf-DAGs in general, and gates with shared
// subexpressions (XOR) produce internal sharing as well when compiled
// with sharing enabled.
type Pattern struct {
	Gate *genlib.Gate
	// Graph holds the pattern nodes; Root computes the gate output.
	Graph *Graph
	Root  Node
	// PinLeaf maps each gate pin index to its leaf node; pins and
	// leaves correspond one-to-one.
	PinLeaf []Node
	// leafPin is the inverse: node -> pin index, -1 for non-leaves.
	leafPin []int32
	// Size is the total number of pattern nodes (the p metric of the
	// paper's complexity analysis counts these across the library).
	Size int
	// Depth is the pattern graph depth in NAND2/INV levels.
	Depth int
}

// LeafPin returns the gate pin index of leaf node n, or -1 when n is
// not a leaf.
func (p *Pattern) LeafPin(n Node) int {
	if int(n) >= len(p.leafPin) {
		return -1
	}
	return int(p.leafPin[n])
}

// CompileOptions controls pattern compilation.
type CompileOptions struct {
	// Share enables structural hashing inside each pattern, producing
	// leaf-DAG/DAG patterns. Without sharing, every subexpression is
	// duplicated and patterns are trees over shared leaves.
	Share bool
	// Chain decomposes n-ary operators as left-leaning chains instead
	// of balanced trees; use it when the subject graph was built with
	// chain decomposition so wide gates still match structurally.
	Chain bool
}

// CompilePattern decomposes one gate. Gates that do not produce a
// proper pattern (constants, buffers: root would be a leaf) return an
// error.
func CompilePattern(g *genlib.Gate, opt CompileOptions) (*Pattern, error) {
	if g.NumInputs() == 0 {
		return nil, fmt.Errorf("subject: gate %q is constant; no pattern", g.Name)
	}
	if len(g.Expr.Vars()) != g.NumInputs() {
		return nil, fmt.Errorf("subject: gate %q has pins unused by its function", g.Name)
	}
	pg := NewGraph("pattern:"+g.Name, opt.Share)
	pg.SetChainDecomposition(opt.Chain)
	env := map[string]Node{}
	pinLeaf := make([]Node, len(g.Pins))
	for i, p := range g.Pins {
		leaf, err := pg.AddPI(p.Name)
		if err != nil {
			return nil, err
		}
		env[p.Name] = leaf
		pinLeaf[i] = leaf
	}
	root, err := pg.Build(g.Expr, env)
	if err != nil {
		return nil, fmt.Errorf("subject: gate %q: %v", g.Name, err)
	}
	if pg.KindOf(root) == PI {
		return nil, fmt.Errorf("subject: gate %q is a wire (buffer); no pattern", g.Name)
	}
	pg.MarkOutput(g.Output, root)
	leafPin := make([]int32, pg.NumNodes())
	for i := range leafPin {
		leafPin[i] = -1
	}
	for pin, leaf := range pinLeaf {
		leafPin[leaf] = int32(pin)
	}
	return &Pattern{
		Gate:    g,
		Graph:   pg,
		Root:    root,
		PinLeaf: pinLeaf,
		leafPin: leafPin,
		Size:    pg.NumNodes(),
		Depth:   pg.Depth(),
	}, nil
}

// CompileLibrary compiles every mappable gate of lib. Buffers and
// constant gates are skipped (reported in skipped). The returned
// patterns preserve library order.
func CompileLibrary(lib *genlib.Library, opt CompileOptions) (patterns []*Pattern, skipped []string, err error) {
	for _, g := range lib.Gates {
		p, perr := CompilePattern(g, opt)
		if perr != nil {
			skipped = append(skipped, g.Name)
			continue
		}
		patterns = append(patterns, p)
	}
	if len(patterns) == 0 {
		return nil, skipped, fmt.Errorf("subject: library %q has no mappable gates", lib.Name)
	}
	return patterns, skipped, nil
}
