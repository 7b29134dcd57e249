package subject

import (
	"math/rand"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// numClasses returns the number of classes with alternatives.
func numClasses(c *Choices) int {
	n := 0
	for _, cl := range c.classes {
		if len(cl) > 1 {
			n++
		}
	}
	return n
}

// TestChoiceClassesCompleteBeforeConsumers pins the order mappers rely
// on: every consumer of a class member comes after the class's last
// member. On random networks structural hashing can join a class that
// already has consumers; such classes must be dropped.
func TestChoiceClassesCompleteBeforeConsumers(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		g, choices, err := FromNetworkWithChoices(bench.RandomDAG(6, 40, seed))
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.NumNodes(); u++ {
			fis, k := g.Fanins(Node(u))
			for i := 0; i < k; i++ {
				for _, m := range choices.Members(fis[i]) {
					if int(m) >= u {
						t.Fatalf("seed %d: node %d consumes %d, whose class member %d comes at or after it",
							seed, u, fis[i], m)
					}
				}
			}
		}
	}
}

func TestChoicesDeclareAndMembers(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	n1 := g.Nand(a, b)
	n2 := g.Not(n1)
	n3 := g.Not(n2) // folds back to n1 under strash? Not(Not) folds -> n1
	c := NewChoices()
	if err := c.Declare(n1, n2); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Members(n1)); got != 2 {
		t.Errorf("members = %d, want 2", got)
	}
	if c.Members(n3) == nil && n3 != n1 {
		t.Errorf("fold expectation broken")
	}
	// Merging via a shared member.
	x, _ := g.AddPI("x")
	if err := c.Declare(n2, g.Nand(x, a)); err != nil {
		t.Fatal(err)
	}
	if got := len(c.Members(n1)); got != 3 {
		t.Errorf("after merge members = %d, want 3", got)
	}
	if numClasses(c) != 1 {
		t.Errorf("classes = %d", numClasses(c))
	}
	// Single-node declarations are no-ops.
	if err := c.Declare(n1); err != nil {
		t.Fatal(err)
	}
	var nilC *Choices
	if nilC.Members(n1) != nil {
		t.Error("nil choices should have no members")
	}
}

// Every choice class must contain functionally identical nodes.
func TestFromNetworkWithChoicesClassesAreEquivalent(t *testing.T) {
	for _, c := range []struct {
		name string
		nw   *network.Network
	}{
		{"alu4", bench.ALU(4)},
		{"adder8", bench.RippleAdder(8)},
		{"c432", bench.C432()},
	} {
		g, choices, err := FromNetworkWithChoices(c.nw)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := g.Check(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if numClasses(choices) == 0 {
			t.Errorf("%s: no choice classes created", c.name)
		}
		rng := rand.New(rand.NewSource(17))
		for round := 0; round < 4; round++ {
			in := map[string]uint64{}
			for _, pi := range g.PIs {
				in[g.NameOf(pi)] = rng.Uint64()
			}
			vals, err := g.Eval(in)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[Node]bool{}
			for i := 0; i < g.NumNodes(); i++ {
				n := Node(i)
				members := choices.Members(n)
				if members == nil || seen[n] {
					continue
				}
				for _, m := range members {
					seen[m] = true
					if vals[m] != vals[members[0]] {
						t.Fatalf("%s: class members %v and %v disagree", c.name, members[0], m)
					}
				}
			}
		}
	}
}

// The union graph computes the original outputs.
func TestFromNetworkWithChoicesOutputsCorrect(t *testing.T) {
	nw := bench.Comparator(6)
	g, _, err := FromNetworkWithChoices(nw)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := network.NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(19))
	in := map[string]uint64{}
	for _, pi := range nw.Inputs() {
		in[pi.Name] = rng.Uint64()
	}
	want, err := sim.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	vals, err := g.Eval(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range g.Outputs {
		if vals[o.Node] != want[o.Name] {
			t.Errorf("output %q differs", o.Name)
		}
	}
}

func TestChoicesConstantHandling(t *testing.T) {
	nw := network.New("c")
	if _, err := nw.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("one", nil, logic.Constant(true)); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("g", []string{"a", "one"}, logic.MustParse("!(a*one)")); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput("g"); err != nil {
		t.Fatal(err)
	}
	g, _, err := FromNetworkWithChoices(nw)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Outputs) != 1 {
		t.Fatalf("outputs = %d", len(g.Outputs))
	}
}
