// Quickstart: parse a small BLIF circuit, map it with DAG covering
// and with the tree-covering baseline, verify both, and print the
// mapped netlists.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"dagcover"
)

const fullAdder = `
.model full_adder
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`

func main() {
	nw, err := dagcover.ParseBLIF(strings.NewReader(fullAdder))
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dagcover.CompileLibrary(dagcover.Lib2())
	if err != nil {
		log.Fatal(err)
	}

	ctx, in := context.Background(), dagcover.Input{Network: nw}
	dag, err := dagcover.Map(ctx, in, dagcover.MapOptions{Library: cl})
	if err != nil {
		log.Fatal(err)
	}
	tree, err := dagcover.Map(ctx, in, dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range []struct {
		name string
		res  *dagcover.MapResult
	}{{"DAG covering", dag}, {"tree covering", tree}} {
		if err := dagcover.Verify(nw, r.res.Netlist); err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Printf("%s: delay=%.2f area=%.0f cells=%d (verified)\n",
			r.name, r.res.Delay, r.res.Area, r.res.Cells)
		for _, c := range r.res.Netlist.Cells {
			fmt.Printf("  %-8s %v -> %s\n", c.Gate.Name, c.Inputs, c.Output)
		}
	}
	fmt.Printf("\nDAG covering is never slower: %.2f <= %.2f\n", dag.Delay, tree.Delay)
}
