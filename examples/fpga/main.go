// FPGA: runs FlowMap (§2 of the paper — the algorithm DAG covering
// generalizes to libraries) on a ripple adder for several LUT sizes,
// showing the depth-optimal labels and the LUT netlists.
package main

import (
	"context"
	"fmt"
	"log"

	"dagcover"
	"dagcover/internal/bench"
)

func main() {
	nw := bench.RippleAdder(16)
	g, err := dagcover.BuildSubject(nw)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("16-bit ripple adder: subject graph %v\n\n", g.Stats())
	fmt.Printf("%-4s | %6s | %5s\n", "k", "depth", "LUTs")
	for _, k := range []int{2, 3, 4, 5, 6} {
		res, err := dagcover.Map(context.Background(), dagcover.Input{Subject: g},
			dagcover.MapOptions{Mode: dagcover.ModeLUT, K: k})
		if err != nil {
			log.Fatal(err)
		}
		if err := dagcover.VerifyNetworks(nw, res.Network); err != nil {
			log.Fatalf("k=%d: %v", k, err)
		}
		fmt.Printf("%-4d | %6d | %5d\n", k, res.Depth, res.LUTs)
	}
	fmt.Println("\nDepth is provably optimal for every k (FlowMap theorem);")
	fmt.Println("each mapping was verified equivalent to the adder by simulation.")
}
