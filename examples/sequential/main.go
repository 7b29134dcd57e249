// Sequential: the paper's §4 extension — map the combinational
// portion of a sequential circuit with DAG covering, then retime the
// mapped circuit to its minimum clock period (Leiserson-Saxe).
package main

import (
	"context"
	"fmt"
	"log"

	"dagcover"
	"dagcover/internal/bench"
)

func main() {
	// A correlator: input shift register followed by a deep XOR
	// combine tree — all the logic sits in one clock period until
	// retiming pushes the registers into the tree.
	nw := bench.Correlator(16)
	fmt.Printf("correlator(16): %d latches, %d gates\n", len(nw.Latches()), nw.NumGates())

	cl, err := dagcover.CompileLibrary(dagcover.Lib2())
	if err != nil {
		log.Fatal(err)
	}
	opt := dagcover.MapOptions{Library: cl}
	res, err := dagcover.MapSequential(context.Background(), nw, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("combinational mapping: delay=%.2f area=%.0f cells=%d\n",
		res.Comb.Delay, res.Comb.Area, res.Comb.Cells)
	fmt.Printf("clock period before retiming: %.2f\n", res.PeriodBefore)
	fmt.Printf("clock period after retiming:  %.2f\n", res.PeriodAfter)
	fmt.Printf("latches after retiming: %d\n", len(res.Network.Latches()))
	if res.PeriodAfter == res.PeriodBefore {
		fmt.Println("(no improvement: the pattern inputs are unregistered primary")
		fmt.Println(" inputs, so no register can legally move into the XOR tree —")
		fmt.Println(" retiming preserves input/output path latencies)")
	}

	// The same flow on a pipelined ALU, where the input registers can
	// spread into the carry chain.
	palu := bench.PipelinedALU(8, 3)
	res2, err := dagcover.MapSequential(context.Background(), palu, opt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\npipelined ALU(8,3): period %.2f -> %.2f (%.1f%% faster clock)\n",
		res2.PeriodBefore, res2.PeriodAfter,
		100*(res2.PeriodBefore-res2.PeriodAfter)/res2.PeriodBefore)

	// Pan-Liu joint optimization (§4's actual algorithm) for k-LUTs:
	// cuts may cross registers, so it can beat any map-then-retime.
	joint, err := dagcover.MapSequentialLUT(palu, 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("joint LUT mapping (k=4): period %d, %d LUTs, %d registers\n",
		joint.Period, joint.LUTs, joint.Registers)
	fmt.Println("(the result is verified cycle-accurate in the test suite)")
}
