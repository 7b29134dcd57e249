// Richlib: reproduces the paper's central experimental observation —
// the delay advantage of DAG covering over tree covering grows as the
// library gets richer (Table 2 vs Table 3) — as a sweep over library
// richness on an array multiplier.
package main

import (
	"context"
	"fmt"
	"log"

	"dagcover"
	"dagcover/internal/bench"
)

func main() {
	nw := bench.ArrayMultiplier(8)
	fmt.Println("8x8 array multiplier, unit delay per gate")
	fmt.Printf("%-10s | %6s | %9s | %9s | %7s\n", "library", "gates", "tree dly", "DAG dly", "ratio")

	for _, lib := range []*dagcover.Library{
		dagcover.Lib441(),
		dagcover.Lib443(),
	} {
		cl, err := dagcover.CompileLibrary(lib)
		if err != nil {
			log.Fatal(err)
		}
		opt := dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl, Delay: dagcover.UnitDelay}
		tree, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw}, opt)
		if err != nil {
			log.Fatal(err)
		}
		opt.Mode = dagcover.ModeDAG
		dag, err := dagcover.Map(context.Background(), dagcover.Input{Network: nw}, opt)
		if err != nil {
			log.Fatal(err)
		}
		if err := dagcover.Verify(nw, dag.Netlist); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-10s | %6d | %9.0f | %9.0f | %6.2fx\n",
			lib.Name, len(lib.Gates), tree.Delay, dag.Delay, tree.Delay/dag.Delay)
	}
	fmt.Println()
	fmt.Println("Complex gates are used more effectively by DAG covering than by")
	fmt.Println("tree covering because no tree decomposition limits the search")
	fmt.Println("space (paper §5): the ratio grows with library richness.")
}
