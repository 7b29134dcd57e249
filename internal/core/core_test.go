package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
	"dagcover/internal/verify"
)

func matcherFor(t *testing.T, lib *genlib.Library, share bool) *match.Matcher {
	t.Helper()
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: share})
	if err != nil {
		t.Fatal(err)
	}
	return match.NewMatcher(pats)
}

func mapNetwork(t *testing.T, nw *network.Network, lib *genlib.Library, opt Options) *Result {
	t.Helper()
	g, err := subject.FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	share := opt.Class != match.Exact
	res, err := Map(g, matcherFor(t, lib, share), opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mapWithChoices maps nw's choice-encoded subject graph (both
// decompositions of every node), declaring the choices to the matcher
// and to Map.
func mapWithChoices(t *testing.T, nw *network.Network, lib *genlib.Library, opt Options) *Result {
	t.Helper()
	g, choices, err := subject.FromNetworkWithChoices(nw)
	if err != nil {
		t.Fatal(err)
	}
	m := matcherFor(t, lib, true)
	m.SetChoices(choices)
	opt.Choices = choices
	res, err := Map(g, m, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustNetwork(t *testing.T, build func(nw *network.Network) error) *network.Network {
	t.Helper()
	nw := network.New("t")
	if err := build(nw); err != nil {
		t.Fatal(err)
	}
	return nw
}

func simpleAnd(t *testing.T) *network.Network {
	return mustNetwork(t, func(nw *network.Network) error {
		for _, v := range []string{"a", "b"} {
			if _, err := nw.AddInput(v); err != nil {
				return err
			}
		}
		if _, err := nw.AddNode("f", []string{"a", "b"}, logic.MustParse("a*b")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
}

func TestMapSimpleAnd(t *testing.T) {
	nw := simpleAnd(t)
	lib := libgen.Lib2()
	res := mapNetwork(t, nw, lib, Options{Class: match.Standard})
	if res.Netlist.NumCells() != 1 {
		t.Fatalf("cells = %d, want 1 (and2)", res.Netlist.NumCells())
	}
	if g := res.Netlist.Cells[0].Gate.Name; g != "and2" {
		t.Errorf("gate = %q, want and2", g)
	}
	if res.Delay != 0.9 {
		t.Errorf("delay = %v, want 0.9", res.Delay)
	}
	if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
		t.Error(err)
	}
}

// Figure 2: DAG covering duplicates the shared middle cone and beats
// tree covering.
func TestFigure2Duplication(t *testing.T) {
	lib := genlib.NewLibrary("fig2")
	addGate := func(name string, area float64, expr string) {
		e := logic.MustParse(expr)
		g := &genlib.Gate{Name: name, Area: area, Output: "O", Expr: e}
		for _, v := range e.Vars() {
			g.Pins = append(g.Pins, genlib.Pin{Name: v, InputLoad: 1, MaxLoad: 999, RiseBlock: 1, FallBlock: 1})
		}
		if err := lib.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	addGate("inv", 1, "!a")
	addGate("nand2", 2, "!(a*b)")
	addGate("ao21n", 3, "a*b+!c") // matches NAND(NAND(a,b), c)

	g := subject.NewGraph("fig2", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	d, _ := g.AddPI("d")
	m := g.Nand(a, b)
	o1 := g.Nand(m, c)
	o2 := g.Nand(m, d)
	g.MarkOutput("o1", o1)
	g.MarkOutput("o2", o2)

	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	mt := match.NewMatcher(pats)

	tree, err := Map(g, mt, Options{Class: match.Exact, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	dag, err := Map(g, mt, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Delay != 2 {
		t.Errorf("tree delay = %v, want 2 (no exact match through the fanout)", tree.Delay)
	}
	if dag.Delay != 1 {
		t.Errorf("DAG delay = %v, want 1 (ao21n through the duplicated cone)", dag.Delay)
	}
	if dag.Stats.DuplicatedNodes != 1 {
		t.Errorf("duplicated nodes = %d, want 1 (the middle NAND)", dag.Stats.DuplicatedNodes)
	}
	for _, cell := range dag.Netlist.Cells {
		if cell.Gate.Name != "ao21n" {
			t.Errorf("DAG mapping used %q; want only ao21n cells", cell.Gate.Name)
		}
	}
	// Both mappings must be functionally correct.
	ref := figure2Reference(t)
	if err := verify.Mapped(ref, tree.Netlist, verify.Options{}); err != nil {
		t.Errorf("tree mapping: %v", err)
	}
	if err := verify.Mapped(ref, dag.Netlist, verify.Options{}); err != nil {
		t.Errorf("DAG mapping: %v", err)
	}
}

// figure2Reference reconstructs the figure-2 subject as a network.
func figure2Reference(t *testing.T) *network.Network {
	return mustNetwork(t, func(nw *network.Network) error {
		for _, v := range []string{"a", "b", "c", "d"} {
			if _, err := nw.AddInput(v); err != nil {
				return err
			}
		}
		if _, err := nw.AddNode("o1", []string{"a", "b", "c"}, logic.MustParse("!(!(a*b)*c)")); err != nil {
			return err
		}
		if _, err := nw.AddNode("o2", []string{"a", "b", "d"}, logic.MustParse("!(!(a*b)*d)")); err != nil {
			return err
		}
		if err := nw.MarkOutput("o1"); err != nil {
			return err
		}
		return nw.MarkOutput("o2")
	})
}

// randomNetwork builds a random acyclic network.
func randomNetwork(t *testing.T, rng *rand.Rand, nIn, nGates int) *network.Network {
	t.Helper()
	nw := network.New(fmt.Sprintf("rand%d", rng.Int63n(1<<30)))
	var names []string
	for i := 0; i < nIn; i++ {
		name := fmt.Sprintf("i%d", i)
		if _, err := nw.AddInput(name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for g := 0; g < nGates; g++ {
		name := fmt.Sprintf("g%d", g)
		k := 1 + rng.Intn(3)
		var fanins []string
		seen := map[string]bool{}
		for len(fanins) < k {
			f := names[rng.Intn(len(names))]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		kids := make([]*logic.Expr, len(fanins))
		for i, f := range fanins {
			kids[i] = logic.Variable(f)
		}
		var fn *logic.Expr
		switch rng.Intn(5) {
		case 0:
			fn = logic.Not(logic.And(kids...))
		case 1:
			fn = logic.Or(kids...)
		case 2:
			fn = logic.Xor(kids...)
		case 3:
			fn = logic.And(kids...)
		default:
			fn = logic.Not(logic.Or(kids...))
		}
		if _, err := nw.AddNode(name, fanins, fn); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	// Mark the last few nodes as outputs.
	for i := 0; i < 3; i++ {
		if err := nw.MarkOutput(names[len(names)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func TestMappedEquivalenceAcrossClassesAndLibraries(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	libs := []struct {
		lib *genlib.Library
		dm  genlib.DelayModel
	}{
		{libgen.Lib441(), genlib.UnitDelay{}},
		{libgen.Lib2(), genlib.IntrinsicDelay{}},
	}
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(t, rng, 5, 20)
		for _, l := range libs {
			for _, class := range []match.Class{match.Exact, match.Standard, match.Extended} {
				for _, choices := range []bool{false, true} {
					if choices && class == match.Exact {
						continue // choices need the shared (non-exact) pattern set
					}
					var res *Result
					if choices {
						res = mapWithChoices(t, nw, l.lib, Options{Class: class, Delay: l.dm})
					} else {
						res = mapNetwork(t, nw, l.lib, Options{Class: class, Delay: l.dm})
					}
					if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
						t.Fatalf("trial %d lib %s class %v choices %v: %v", trial, l.lib.Name, class, choices, err)
					}
					tm, err := res.Netlist.Delay(l.dm, nil)
					if err != nil {
						t.Fatal(err)
					}
					if math.Abs(tm.Delay-res.Delay) > 1e-9 {
						t.Fatalf("trial %d lib %s class %v choices %v: label delay %v != netlist delay %v",
							trial, l.lib.Name, class, choices, res.Delay, tm.Delay)
					}
				}
			}
		}
	}
}

// With only {inv, nand2} and unit delay, the optimal mapped depth is
// exactly the subject-graph depth.
func TestUnitDelayDepthEqualsSubjectDepth(t *testing.T) {
	lib := genlib.NewLibrary("base")
	for _, spec := range []struct{ name, expr string }{{"inv", "!a"}, {"nand2", "!(a*b)"}} {
		e := logic.MustParse(spec.expr)
		g := &genlib.Gate{Name: spec.name, Area: 1, Output: "O", Expr: e}
		for _, v := range e.Vars() {
			g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
		}
		if err := lib.Add(g); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 5; trial++ {
		nw := randomNetwork(t, rng, 4, 15)
		g, err := subject.FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Map(g, matcherFor(t, lib, true), Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
		if err != nil {
			t.Fatal(err)
		}
		// Depth of the demanded cones only: compute max depth over
		// outputs.
		depth := 0.0
		lv := make([]float64, g.NumNodes())
		for i := 0; i < g.NumNodes(); i++ {
			fis, k := g.Fanins(subject.Node(i))
			for fi := 0; fi < k; fi++ {
				if lv[fis[fi]]+1 > lv[i] {
					lv[i] = lv[fis[fi]] + 1
				}
			}
		}
		for _, o := range g.Outputs {
			if lv[o.Node] > depth {
				depth = lv[o.Node]
			}
		}
		if res.Delay != depth {
			t.Errorf("trial %d: delay %v != output depth %v", trial, res.Delay, depth)
		}
	}
}

func TestClassOrdering(t *testing.T) {
	// Extended <= Standard <= Exact on delay, for any library.
	rng := rand.New(rand.NewSource(47))
	lib := libgen.Lib2()
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(t, rng, 5, 25)
		exact := mapNetwork(t, nw, lib, Options{Class: match.Exact})
		std := mapNetwork(t, nw, lib, Options{Class: match.Standard})
		ext := mapNetwork(t, nw, lib, Options{Class: match.Extended})
		if std.Delay > exact.Delay+1e-9 {
			t.Errorf("trial %d: standard (%v) worse than exact (%v)", trial, std.Delay, exact.Delay)
		}
		if ext.Delay > std.Delay+1e-9 {
			t.Errorf("trial %d: extended (%v) worse than standard (%v)", trial, ext.Delay, std.Delay)
		}
	}
}

func TestRicherLibraryNeverSlower(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	l441, l443 := libgen.Lib441(), libgen.Lib443()
	for trial := 0; trial < 4; trial++ {
		nw := randomNetwork(t, rng, 5, 25)
		small := mapNetwork(t, nw, l441, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
		rich := mapNetwork(t, nw, l443, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
		if rich.Delay > small.Delay+1e-9 {
			t.Errorf("trial %d: 44-3 (%v) slower than 44-1 (%v)", trial, rich.Delay, small.Delay)
		}
	}
}

func TestAreaRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	lib := libgen.Lib2()
	improved := false
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(t, rng, 5, 30)
		plain := mapNetwork(t, nw, lib, Options{Class: match.Standard})
		rec := mapNetwork(t, nw, lib, Options{Class: match.Standard, AreaRecovery: true})
		if math.Abs(plain.Delay-rec.Delay) > 1e-9 {
			t.Errorf("trial %d: area recovery changed delay %v -> %v", trial, plain.Delay, rec.Delay)
		}
		if rec.Netlist.Area() > plain.Netlist.Area()+1e-9 {
			t.Errorf("trial %d: area recovery increased area %v -> %v",
				trial, plain.Netlist.Area(), rec.Netlist.Area())
		}
		if rec.Netlist.Area() < plain.Netlist.Area()-1e-9 {
			improved = true
		}
		if err := verify.Mapped(nw, rec.Netlist, verify.Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if !improved {
		t.Log("area recovery never improved area on these trials (acceptable but unusual)")
	}
}

func TestArrivalTimes(t *testing.T) {
	nw := simpleAnd(t)
	lib := libgen.Lib2()
	res := mapNetwork(t, nw, lib, Options{
		Class:    match.Standard,
		Arrivals: map[string]float64{"a": 10},
	})
	if res.Delay != 10.9 {
		t.Errorf("delay with late arrival = %v, want 10.9", res.Delay)
	}
}

func TestNoMatchError(t *testing.T) {
	// Library without an inverter cannot map an INV node.
	lib := genlib.NewLibrary("broken")
	e := logic.MustParse("!(a*b)")
	g := &genlib.Gate{Name: "nand2", Area: 1, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1})
	}
	if err := lib.Add(g); err != nil {
		t.Fatal(err)
	}
	nw := mustNetwork(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("a"); err != nil {
			return err
		}
		if _, err := nw.AddNode("f", []string{"a"}, logic.MustParse("!a")); err != nil {
			return err
		}
		return nw.MarkOutput("f")
	})
	gph, err := subject.FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Map(gph, match.NewMatcher(pats), Options{Class: match.Standard}); err == nil {
		t.Error("mapping without an inverter succeeded")
	}
}

func TestOutputIsInput(t *testing.T) {
	// PO directly wired to a PI: no cells needed.
	nw := mustNetwork(t, func(nw *network.Network) error {
		if _, err := nw.AddInput("a"); err != nil {
			return err
		}
		if _, err := nw.AddNode("f", []string{"a"}, logic.MustParse("!a")); err != nil {
			return err
		}
		if err := nw.MarkOutput("f"); err != nil {
			return err
		}
		return nw.MarkOutput("a")
	})
	lib := libgen.Lib441()
	res := mapNetwork(t, nw, lib, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
		t.Fatal(err)
	}
	if res.Netlist.NumCells() != 1 {
		t.Errorf("cells = %d, want 1 (just the inverter)", res.Netlist.NumCells())
	}
}

func TestSharedOutputNode(t *testing.T) {
	// Two POs on the same node: one cell, two ports.
	nw := mustNetwork(t, func(nw *network.Network) error {
		for _, v := range []string{"a", "b"} {
			if _, err := nw.AddInput(v); err != nil {
				return err
			}
		}
		if _, err := nw.AddNode("f", []string{"a", "b"}, logic.MustParse("!(a*b)")); err != nil {
			return err
		}
		if _, err := nw.AddNode("g", []string{"a", "b"}, logic.MustParse("!(a*b)")); err != nil {
			return err
		}
		if err := nw.MarkOutput("f"); err != nil {
			return err
		}
		return nw.MarkOutput("g")
	})
	lib := libgen.Lib441()
	res := mapNetwork(t, nw, lib, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if res.Netlist.NumCells() != 1 {
		t.Errorf("cells = %d, want 1 (strashed POs share a node)", res.Netlist.NumCells())
	}
	if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulated(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	nw := randomNetwork(t, rng, 5, 20)
	res := mapNetwork(t, nw, libgen.Lib2(), Options{Class: match.Standard})
	if res.Stats.NodesLabeled == 0 || res.Stats.MatchesEnumerated == 0 || res.Stats.CellsEmitted == 0 {
		t.Errorf("stats not populated: %+v", res.Stats)
	}
	if res.Stats.CellsEmitted != res.Netlist.NumCells() {
		t.Errorf("cells emitted %d != netlist cells %d", res.Stats.CellsEmitted, res.Netlist.NumCells())
	}
}
