package dagcover_test

import (
	"context"
	"fmt"
	"strings"

	"dagcover"
	"dagcover/internal/bench"
)

// The half adder in BLIF used by the examples.
const halfAdder = `
.model ha
.inputs a b
.outputs sum carry
.names a b sum
10 1
01 1
.names a b carry
11 1
.end
`

// ExampleMap maps a circuit with the paper's DAG-covering algorithm
// and verifies the result.
func ExampleMap() {
	nw, err := dagcover.ParseBLIF(strings.NewReader(halfAdder))
	if err != nil {
		panic(err)
	}
	cl, err := dagcover.CompileLibrary(dagcover.Lib2())
	if err != nil {
		panic(err)
	}
	res, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw}, dagcover.MapOptions{Library: cl})
	if err != nil {
		panic(err)
	}
	if err := dagcover.Verify(nw, res.Netlist); err != nil {
		panic(err)
	}
	fmt.Printf("delay %.1f, %d cells, verified\n", res.Delay, res.Cells)
	// Output: delay 1.4, 2 cells, verified
}

// ExampleMap_tree compares the tree-covering baseline against DAG
// covering on the same subject graph.
func ExampleMap_tree() {
	g, err := dagcover.BuildSubject(bench.RippleAdder(8))
	if err != nil {
		panic(err)
	}
	cl, err := dagcover.CompileLibrary(dagcover.Lib441())
	if err != nil {
		panic(err)
	}
	in := dagcover.Input{Subject: g}
	opt := dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl, Delay: dagcover.UnitDelay}
	tree, err := dagcover.Map(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	opt.Mode = dagcover.ModeDAG
	dag, err := dagcover.Map(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("DAG never slower: %v\n", dag.Delay <= tree.Delay)
	// Output: DAG never slower: true
}

// ExampleMap_lut runs FlowMap on a parity tree: 16 inputs fold into a
// depth-2, five-LUT mapping at k = 4.
func ExampleMap_lut() {
	nw := bench.ParityTree(16)
	res, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw},
		dagcover.MapOptions{Mode: dagcover.ModeLUT, K: 4})
	if err != nil {
		panic(err)
	}
	fmt.Printf("depth %d, %d LUTs\n", res.Depth, res.LUTs)
	// Output: depth 2, 5 LUTs
}

// ExampleRetime pipelines a deep ALU by moving its input registers
// into the carry chain.
func ExampleRetime() {
	nw := bench.PipelinedALU(4, 2)
	_, period, err := dagcover.Retime(nw, nil)
	if err != nil {
		panic(err)
	}
	before, err := dagcover.MinPeriod(nw, nil)
	if err != nil {
		panic(err)
	}
	fmt.Printf("minimum period %v (committed %v)\n", before, period)
	// Output: minimum period 2 (committed 2)
}

// ExampleMap_choices maps over a choice-encoded subject graph (several
// decompositions in one graph, §4 / mapping graphs).
func ExampleMap_choices() {
	in := dagcover.Input{Network: bench.ArrayMultiplier(6)}
	cl, err := dagcover.CompileLibrary(dagcover.Lib441())
	if err != nil {
		panic(err)
	}
	opt := dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay}
	plain, err := dagcover.Map(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	opt.Mode = dagcover.ModeChoices
	choices, err := dagcover.Map(context.Background(), in, opt)
	if err != nil {
		panic(err)
	}
	fmt.Printf("plain %v, with choices %v\n", plain.Delay, choices.Delay)
	// Output: plain 43, with choices 36
}

// ExampleMapSequentialLUT runs Pan-Liu joint sequential mapping: the
// 6-bit counter's period halves versus any map-then-retime flow.
func ExampleMapSequentialLUT() {
	res, err := dagcover.MapSequentialLUT(bench.Counter(6), 4)
	if err != nil {
		panic(err)
	}
	fmt.Printf("period %d with %d LUTs\n", res.Period, res.LUTs)
	// Output: period 1 with 18 LUTs
}
