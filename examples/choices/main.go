// Choices: the paper's §4 closing direction — encode several
// decompositions of the same circuit in one subject graph (Lehman et
// al.'s mapping graphs) and let DAG covering pick per region. The
// choice-encoded mapping is never slower than either single
// decomposition and often beats both.
package main

import (
	"context"
	"fmt"
	"log"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/subject"
)

func main() {
	nw := bench.ArrayMultiplier(8)
	cl, err := dagcover.CompileLibrary(dagcover.Lib441())
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	opt := dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay}

	// Two fixed decompositions of the same network.
	for _, cfg := range []struct {
		name  string
		chain bool
	}{{"balanced", false}, {"chain", true}} {
		g, err := subject.FromNetworkChained(nw, cfg.chain)
		if err != nil {
			log.Fatal(err)
		}
		res, err := dagcover.Map(ctx, dagcover.Input{Subject: g}, opt)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s decomposition: %4d subject nodes, delay %.0f\n",
			cfg.name, res.SubjectNodes, res.Delay)
	}

	// The union with choices.
	opt.Mode = dagcover.ModeChoices
	res, err := dagcover.Map(ctx, dagcover.Input{Network: nw}, opt)
	if err != nil {
		log.Fatal(err)
	}
	if err := dagcover.Verify(nw, res.Netlist); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-9s decomposition: %4d subject nodes, delay %.0f (verified)\n",
		"choices", res.SubjectNodes, res.Delay)
	fmt.Println("\nChoices are never slower than either single decomposition; on")
	fmt.Println("mixed control/datapath circuits they beat both (EXPERIMENTS.md, E8)")
	fmt.Println("— the combination the paper anticipates with mapping graphs (§4).")
}
