// Figures: reconstructs the paper's two figures end to end.
//
// Figure 1 (standard vs extended match): a pattern that embeds only
// if two of its nodes map to the same subject node — legal for
// extended matches (Definition 3), illegal for standard matches
// (Definition 1, one-to-one).
//
// Figure 2 (duplication): a multi-fanout subject node blocks the good
// gate for tree covering; DAG covering duplicates the shared cone and
// halves the delay.
package main

import (
	"context"
	"fmt"
	"log"

	"dagcover"
	"dagcover/internal/genlib"
	"dagcover/internal/logic"
	"dagcover/internal/match"
	"dagcover/internal/subject"
)

func gate(lib *genlib.Library, name string, area float64, expr string) {
	e := logic.MustParse(expr)
	g := &genlib.Gate{Name: name, Area: area, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{Name: v, InputLoad: 1, MaxLoad: 999, RiseBlock: 1, FallBlock: 1})
	}
	if err := lib.Add(g); err != nil {
		log.Fatal(err)
	}
}

func figure1() {
	fmt.Println("=== Figure 1: standard vs extended match ===")
	lib := genlib.NewLibrary("fig1")
	gate(lib, "andnot", 2, "!(a*!b)") // NAND2(a, INV(b)): two distinct leaves

	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		log.Fatal(err)
	}
	m := match.NewMatcher(pats)

	// Subject: top = NAND2(n, INV(n)); matching andnot at top needs
	// both leaves a and b bound to n.
	g := subject.NewGraph("fig1", true)
	p, _ := g.AddPI("p")
	q, _ := g.AddPI("q")
	n := g.Nand(p, q)
	top := g.Nand(n, g.Not(n))

	for _, class := range []match.Class{match.Standard, match.Extended} {
		found := m.AllMatches(g, top, class)
		fmt.Printf("  %-8v matches at the top node: %d\n", class, len(found))
		for _, mt := range found {
			fmt.Printf("    gate %s, pin a -> node %v, pin b -> node %v\n",
				mt.Pattern.Gate.Name, mt.Leaves[0], mt.Leaves[1])
		}
	}
	fmt.Println("  (the extended match binds both pins to the same node, unfolding the DAG)")
	fmt.Println()
}

func figure2() {
	fmt.Println("=== Figure 2: duplication of subject-graph nodes ===")
	lib := genlib.NewLibrary("fig2")
	gate(lib, "inv", 1, "!a")
	gate(lib, "nand2", 2, "!(a*b)")
	gate(lib, "ao21n", 3, "a*b+!c") // covers NAND2(NAND2(a,b), c) in one level

	cl, err := dagcover.CompileLibrary(lib)
	if err != nil {
		log.Fatal(err)
	}

	// Subject: the middle NAND feeds two output cones.
	g := subject.NewGraph("fig2", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	d, _ := g.AddPI("d")
	mid := g.Nand(a, b)
	g.MarkOutput("o1", g.Nand(mid, c))
	g.MarkOutput("o2", g.Nand(mid, d))

	in := dagcover.Input{Subject: g}
	tree, err := dagcover.Map(context.Background(), in, dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl, Delay: dagcover.UnitDelay})
	if err != nil {
		log.Fatal(err)
	}
	dag, err := dagcover.Map(context.Background(), in, dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  tree covering: delay=%v cells=%d (the multi-fanout point survives)\n",
		tree.Delay, tree.Cells)
	for _, cell := range tree.Netlist.Cells {
		fmt.Printf("    %-7s %v -> %s\n", cell.Gate.Name, cell.Inputs, cell.Output)
	}
	fmt.Printf("  DAG covering:  delay=%v cells=%d, %d subject node duplicated\n",
		dag.Delay, dag.Cells, dag.DuplicatedNodes)
	for _, cell := range dag.Netlist.Cells {
		fmt.Printf("    %-7s %v -> %s\n", cell.Gate.Name, cell.Inputs, cell.Output)
	}
	fmt.Println("  (both ao21n cells re-implement the middle NAND internally;")
	fmt.Println("   the multiple-fanout point moved to the primary inputs)")
}

func main() {
	figure1()
	figure2()
}
