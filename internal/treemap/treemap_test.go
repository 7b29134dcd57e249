package treemap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
	"dagcover/internal/verify"
)

func treeMatcher(t *testing.T, lib *genlib.Library) *match.Matcher {
	t.Helper()
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: false})
	if err != nil {
		t.Fatal(err)
	}
	return match.NewMatcher(pats)
}

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
		switch rng.Intn(4) {
		case 0:
			fn = logic.Not(logic.And(kids...))
		case 1:
			fn = logic.Or(kids...)
		case 2:
			fn = logic.Xor(kids...)
		default:
			fn = logic.And(kids...)
		}
		if _, err := nw.AddNode(name, fanins, fn); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for i := 0; i < 2; i++ {
		if err := nw.MarkOutput(names[len(names)-1-i]); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func TestMapBasicAndVerify(t *testing.T) {
	lib := libgen.Lib2()
	m := treeMatcher(t, lib)
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 8; trial++ {
		nw := randomNetwork(t, rng, 5, 25)
		g, err := subject.FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Map(g, m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Mapped(nw, res.Netlist, verify.Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if res.Trees <= 0 {
			t.Errorf("trial %d: trees = %d", trial, res.Trees)
		}
	}
}

// The independent tree mapper and the generic covering engine in exact
// mode must agree on optimal delay.
func TestAgreesWithCoreExact(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for _, libCase := range []struct {
		lib *genlib.Library
		dm  genlib.DelayModel
	}{
		{libgen.Lib441(), genlib.UnitDelay{}},
		{libgen.Lib2(), genlib.IntrinsicDelay{}},
	} {
		m := treeMatcher(t, libCase.lib)
		for trial := 0; trial < 6; trial++ {
			nw := randomNetwork(t, rng, 5, 30)
			g, err := subject.FromNetwork(nw)
			if err != nil {
				t.Fatal(err)
			}
			tree, err := Map(g, m, Options{Delay: libCase.dm})
			if err != nil {
				t.Fatal(err)
			}
			coreRes, err := core.Map(g, m, core.Options{Class: match.Exact, Delay: libCase.dm})
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(tree.Delay-coreRes.Delay) > 1e-9 {
				t.Errorf("lib %s trial %d: treemap %v != core exact %v",
					libCase.lib.Name, trial, tree.Delay, coreRes.Delay)
			}
		}
	}
}

func TestMinAreaMode(t *testing.T) {
	lib := libgen.Lib2()
	m := treeMatcher(t, lib)
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 6; trial++ {
		nw := randomNetwork(t, rng, 5, 30)
		g, err := subject.FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		delayRes, err := Map(g, m, Options{Objective: MinDelay})
		if err != nil {
			t.Fatal(err)
		}
		areaRes, err := Map(g, m, Options{Objective: MinArea})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.Mapped(nw, areaRes.Netlist, verify.Options{}); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if areaRes.Netlist.Area() > delayRes.Netlist.Area()+1e-9 {
			t.Errorf("trial %d: min-area area %v > min-delay area %v",
				trial, areaRes.Netlist.Area(), delayRes.Netlist.Area())
		}
		if areaRes.Delay+1e-9 < delayRes.Delay {
			t.Errorf("trial %d: min-area delay %v beats the optimal %v",
				trial, areaRes.Delay, delayRes.Delay)
		}
		if areaRes.Cost != areaRes.Netlist.Area() {
			t.Errorf("trial %d: cost %v != area %v", trial, areaRes.Cost, areaRes.Netlist.Area())
		}
	}
}

// Tree mapping never duplicates: every net is driven by one cell and
// the number of cells is bounded by the demanded subject nodes.
func TestNoDuplication(t *testing.T) {
	lib := libgen.Lib441()
	m := treeMatcher(t, lib)
	rng := rand.New(rand.NewSource(83))
	nw := randomNetwork(t, rng, 5, 40)
	g, err := subject.FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Map(g, m, Options{Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	nonPI := 0
	for i := 0; i < g.NumNodes(); i++ {
		if g.KindOf(subject.Node(i)) != subject.PI {
			nonPI++
		}
	}
	if res.Netlist.NumCells() > nonPI {
		t.Errorf("cells %d exceed subject nodes %d: duplication in tree mapping",
			res.Netlist.NumCells(), nonPI)
	}
}

func TestObjectiveString(t *testing.T) {
	if MinDelay.String() != "min-delay" || MinArea.String() != "min-area" {
		t.Error("objective strings wrong")
	}
}

func TestErrorCases(t *testing.T) {
	lib := libgen.Lib441()
	m := treeMatcher(t, lib)
	g := subject.NewGraph("empty", true)
	if _, err := Map(g, m, Options{}); err == nil {
		t.Error("no-output graph accepted")
	}
}

// TestRetimingMatchesNetlistDelay pins the re-timing done during
// emission: Result.Delay must equal a from-scratch Netlist.Delay of
// the emitted netlist bit for bit, on C432 and C6288 x the paper's
// three libraries, both objectives, with and without fractional PI
// arrival times.
func TestRetimingMatchesNetlistDelay(t *testing.T) {
	libs := []struct {
		name  string
		lib   func() *genlib.Library
		delay genlib.DelayModel
	}{
		{"lib2", libgen.Lib2, genlib.IntrinsicDelay{}},
		{"44-1", libgen.Lib441, genlib.UnitDelay{}},
		{"44-3", libgen.Lib443, genlib.UnitDelay{}},
	}
	circuits := []bench.Circuit{{Name: "C432", Network: bench.C432()}, {Name: "C6288", Network: bench.C6288()}}
	for _, lc := range libs {
		m := treeMatcher(t, lc.lib())
		for _, c := range circuits {
			g, err := subject.FromNetwork(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(int64(len(c.Name))))
			arrivals := map[string]float64{}
			for _, pi := range g.PIs {
				arrivals[g.NameOf(pi)] = rng.Float64() * 3
			}
			for _, obj := range []Objective{MinDelay, MinArea} {
				for _, arr := range []map[string]float64{nil, arrivals} {
					res, err := Map(g, m, Options{Objective: obj, Delay: lc.delay, Arrivals: arr})
					if err != nil {
						t.Fatal(err)
					}
					sta, err := res.Netlist.Delay(lc.delay, arr)
					if err != nil {
						t.Fatal(err)
					}
					if math.Float64bits(res.Delay) != math.Float64bits(sta.Delay) {
						t.Errorf("%s x %s %v (arrivals %v): Delay %v, Netlist.Delay %v",
							c.Name, lc.name, obj, arr != nil, res.Delay, sta.Delay)
					}
				}
			}
		}
	}
}
