package verify

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// verdicts counts a differential run's failing cases by regime, so a
// test can insist that both regimes saw inequivalent circuits.
type verdicts struct{ exhaustive, random, clean int }

// same fails t unless the compiled check and the reference agree on
// nil-ness and error text.
func same(t *testing.T, label string, got, want error) {
	t.Helper()
	switch {
	case (got == nil) != (want == nil):
		t.Errorf("%s: compiled %v, reference %v", label, got, want)
	case got != nil && got.Error() != want.Error():
		t.Errorf("%s:\n compiled  %v\n reference %v", label, got, want)
	}
}

// tally records a verdict under the regime the reference's source count
// selects.
func (v *verdicts) tally(sources int, err error) {
	switch {
	case err == nil:
		v.clean++
	case sources <= ExhaustiveLimit:
		v.exhaustive++
	default:
		v.random++
	}
}

// randNet builds a random network over nIn primary inputs and nLatch
// latch outputs: constant nodes, NOT chains, and n-ary AND/OR/XOR with
// unfolded constant and negated operands. Gate mutate (-1: none) gets
// its operator flipped without changing any random draw, so the same
// seed yields a near-identical candidate. Outputs are drawn from outRng.
func randNet(t *testing.T, seed int64, nIn, nLatch, nGates, mutate int, outRng *rand.Rand) *network.Network {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	nw := network.New(fmt.Sprintf("r%d", seed))
	var names []string
	for i := 0; i < nIn; i++ {
		n, err := nw.AddInput(fmt.Sprintf("i%d", i))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n.Name)
	}
	for i := 0; i < nLatch; i++ {
		n, err := nw.AddLatchOutput(fmt.Sprintf("q%d", i))
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, n.Name)
	}
	for g := 0; g < nGates; g++ {
		name := fmt.Sprintf("g%d", g)
		kind := rng.Intn(8)
		var fanins []string
		var fn *logic.Expr
		if kind == 0 {
			fn = logic.Constant(rng.Intn(2) == 1)
		} else {
			k := 1 + rng.Intn(5)
			if kind == 1 {
				k = 1
			}
			seen := map[string]bool{}
			for len(fanins) < min(k, len(names)) {
				f := names[len(names)-1-rng.Intn(min(len(names), 24))]
				if !seen[f] {
					seen[f] = true
					fanins = append(fanins, f)
				}
			}
			kids := make([]*logic.Expr, 0, len(fanins)+1)
			for _, f := range fanins {
				e := logic.Variable(f)
				if rng.Intn(3) == 0 {
					e = &logic.Expr{Op: logic.OpNot, Kids: []*logic.Expr{e}}
				}
				kids = append(kids, e)
			}
			if rng.Intn(6) == 0 {
				kids = append(kids, logic.Constant(rng.Intn(2) == 1))
			}
			op := []logic.Op{logic.OpAnd, logic.OpOr, logic.OpXor}[rng.Intn(3)]
			if g == mutate {
				op = map[logic.Op]logic.Op{logic.OpAnd: logic.OpOr, logic.OpOr: logic.OpXor, logic.OpXor: logic.OpAnd}[op]
			}
			fn = &logic.Expr{Op: op, Kids: kids}
			if kind == 1 { // a NOT chain of depth 1..4
				fn = kids[0]
				for d := rng.Intn(4); d >= 0; d-- {
					fn = &logic.Expr{Op: logic.OpNot, Kids: []*logic.Expr{fn}}
				}
				if g == mutate {
					fn = &logic.Expr{Op: logic.OpNot, Kids: []*logic.Expr{fn}}
				}
			}
		}
		if _, err := nw.AddNode(name, fanins, fn); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	gates := names[nIn+nLatch:]
	for i := 0; i < nLatch; i++ {
		if _, err := nw.ConnectLatch(gates[outRng.Intn(len(gates))], fmt.Sprintf("q%d", i), i%2 == 0); err != nil {
			t.Fatal(err)
		}
	}
	for i, n := 0, 1+outRng.Intn(6); i < n; i++ {
		if err := nw.MarkOutput(gates[len(gates)-1-outRng.Intn(min(len(gates), 16))]); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

// TestNetworksMatchReference holds Networks to the map-based reference
// interpreter on random networks in both regimes, clean and mutated,
// across round counts (including ones that leave a partial block) and
// seeds.
func TestNetworksMatchReference(t *testing.T) {
	var v verdicts
	for _, nIn := range []int{1, 3, 6, 7, 9, 12, 15, 20} {
		for seed := int64(0); seed < 12; seed++ {
			nLatch := int(seed % 3)
			nGates := 20 + int(seed)*7
			outSeed := seed * 31
			a := randNet(t, seed, nIn, nLatch, nGates, -1, rand.New(rand.NewSource(outSeed)))
			sources := nIn + nLatch
			opt := Options{Rounds: []int{0, 1, 5, 8, 13}[seed%5], Seed: seed}
			cases := []struct {
				label string
				b     *network.Network
			}{
				{"clean", randNet(t, seed, nIn, nLatch, nGates, -1, rand.New(rand.NewSource(outSeed)))},
				{"mutated early", randNet(t, seed, nIn, nLatch, nGates, nGates/4, rand.New(rand.NewSource(outSeed)))},
				{"mutated late", randNet(t, seed, nIn, nLatch, nGates, nGates-2, rand.New(rand.NewSource(outSeed)))},
				{"other outputs", randNet(t, seed, nIn, nLatch, nGates, -1, rand.New(rand.NewSource(outSeed+1)))},
				{"other network", randNet(t, seed+100, nIn, nLatch, nGates, -1, rand.New(rand.NewSource(outSeed)))},
				{"extra input", randNet(t, seed, nIn+1, nLatch, nGates, -1, rand.New(rand.NewSource(outSeed)))},
				{"extra gates", randNet(t, seed, nIn, nLatch, nGates+8, -1, rand.New(rand.NewSource(outSeed)))},
			}
			for _, c := range cases {
				label := fmt.Sprintf("in=%d seed=%d %s", nIn, seed, c.label)
				got, want := Networks(a, c.b, opt), refNetworks(a, c.b, opt)
				same(t, label, got, want)
				v.tally(sources, want)
			}
		}
	}
	t.Logf("verdicts: %+v", v)
	if v.exhaustive == 0 || v.random == 0 || v.clean == 0 {
		t.Errorf("a regime saw no failing or no passing case: %+v", v)
	}
}

// mapDAG maps RandomDAG(nIn, nGates, seed) onto a compiled library.
func mapDAG(t testing.TB, m *match.Matcher, nIn, nGates int, seed int64) (*network.Network, *mapping.Netlist) {
	t.Helper()
	nw := bench.RandomDAG(nIn, nGates, seed)
	g, err := subject.FromNetwork(nw)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(g, m, core.Options{Class: match.Standard})
	if err != nil {
		t.Fatal(err)
	}
	return nw, res.Netlist
}

func matcherFor(t testing.TB, lib *genlib.Library) *match.Matcher {
	t.Helper()
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	return match.NewMatcher(pats)
}

// mutant copies nl and applies mutation kind k at cell index i: swap
// the gate for another with as many pins, swap a cell's first two
// input nets, move an output port to another net, or read a net
// before its driver (a structural error).
func mutant(nl *mapping.Netlist, lib *genlib.Library, k, i int) *mapping.Netlist {
	out := *nl
	out.Cells = make([]*mapping.Cell, len(nl.Cells))
	for j, c := range nl.Cells {
		cc := *c
		cc.Inputs = slices.Clone(c.Inputs)
		out.Cells[j] = &cc
	}
	out.Outputs = slices.Clone(nl.Outputs)
	c := out.Cells[i%len(out.Cells)]
	switch k {
	case 0:
		for _, g := range lib.Gates {
			if g != c.Gate && g.NumInputs() == c.Gate.NumInputs() && g.NumInputs() > 0 {
				c.Gate = g
				break
			}
		}
	case 1:
		if len(c.Inputs) > 1 {
			c.Inputs[0], c.Inputs[1] = c.Inputs[1], c.Inputs[0]
		} else if len(c.Inputs) == 1 {
			c.Inputs[0] = out.Inputs[i%len(out.Inputs)]
		}
	case 2:
		p := &out.Outputs[i%len(out.Outputs)]
		p.Net = c.Output
	case 3:
		if len(c.Inputs) > 0 {
			c.Inputs[0] = out.Cells[len(out.Cells)-1].Output
		}
	}
	return &out
}

// TestMappedMatchesReference holds Mapped to the reference (which
// checks Netlist.ToNetwork) on random DAGs mapped onto lib2, 44-1 and
// 44-3, clean and mutated, exhaustive (10 inputs) and random (32).
func TestMappedMatchesReference(t *testing.T) {
	var v verdicts
	for _, lib := range []*genlib.Library{libgen.Lib2(), libgen.Lib441(), libgen.Lib443()} {
		m := matcherFor(t, lib)
		for _, nIn := range []int{10, 32} {
			for seed := int64(1); seed <= 3; seed++ {
				orig, nl := mapDAG(t, m, nIn, 150, seed)
				opt := Options{Rounds: []int{0, 9, 3}[seed-1], Seed: seed}
				label := fmt.Sprintf("%s in=%d seed=%d", lib.Name, nIn, seed)
				got, want := Mapped(orig, nl, opt), refMapped(orig, nl, opt)
				same(t, label+" clean", got, want)
				v.tally(nIn, want)
				for k := 0; k < 4; k++ {
					for _, i := range []int{0, len(nl.Cells) / 3, len(nl.Cells) - 1} {
						bad := mutant(nl, lib, k, i)
						got, want := Mapped(orig, bad, opt), refMapped(orig, bad, opt)
						same(t, fmt.Sprintf("%s mutation %d at cell %d", label, k, i), got, want)
						v.tally(nIn, want)
					}
				}
			}
		}
	}
	t.Logf("verdicts: %+v", v)
	if v.exhaustive == 0 || v.random == 0 || v.clean == 0 {
		t.Errorf("a regime saw no failing or no passing case: %+v", v)
	}
}

// TestMappedAllocsIndependentOfRounds: every pass reuses the compiled
// programs' frames, so checking 64 random rounds allocates no more than
// checking 8.
func TestMappedAllocsIndependentOfRounds(t *testing.T) {
	orig, nl := mapDAG(t, matcherFor(t, libgen.Lib443()), 32, 400, 5)
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			if err := Mapped(orig, nl, Options{Rounds: rounds}); err != nil {
				t.Fatal(err)
			}
		})
	}
	a8, a64 := allocs(8), allocs(64)
	t.Logf("allocations per Mapped: %.0f at 8 rounds, %.0f at 64", a8, a64)
	if a64 > a8 {
		t.Errorf("Mapped allocates %.0f times at 64 rounds against %.0f at 8: a per-round allocation is back", a64, a8)
	}
}
