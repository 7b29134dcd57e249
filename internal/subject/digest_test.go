package subject

import (
	"testing"
)

// buildDigestGraph constructs a small fixed graph: f = NAND(a, NOT(b)).
func buildDigestGraph(name, aName, bName, outName string) *Graph {
	g := NewGraph(name, true)
	a, _ := g.AddPI(aName)
	b, _ := g.AddPI(bName)
	n := g.Nand(a, g.Not(b))
	g.MarkOutput(outName, n)
	return g
}

func TestDigestDeterministic(t *testing.T) {
	g1 := buildDigestGraph("t", "a", "b", "f")
	g2 := buildDigestGraph("t", "a", "b", "f")
	d1, d2 := g1.Digest(), g2.Digest()
	if d1 == "" || len(d1) != 64 {
		t.Fatalf("digest %q is not a sha256 hex string", d1)
	}
	if d1 != d2 {
		t.Errorf("identical constructions digest differently: %s vs %s", d1, d2)
	}
	snap := g1.digest.Load()
	if g1.Digest() != d1 {
		t.Error("cached digest differs from first computation")
	}
	if g1.digest.Load() != snap {
		t.Error("a second Digest call on an unchanged graph recomputed the digest")
	}
}

func TestDigestSensitivity(t *testing.T) {
	base := buildDigestGraph("t", "a", "b", "f").Digest()
	cases := map[string]*Graph{
		"graph name":  buildDigestGraph("u", "a", "b", "f"),
		"pi name":     buildDigestGraph("t", "x", "b", "f"),
		"output name": buildDigestGraph("t", "a", "b", "g"),
	}
	seen := map[string]string{base: "base"}
	for what, g := range cases {
		d := g.Digest()
		if prev, dup := seen[d]; dup {
			t.Errorf("changing %s collides with %s: %s", what, prev, d)
		}
		seen[d] = what
	}
	// Different structure: swap which input is inverted.
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	g.MarkOutput("f", g.Nand(g.Not(a), b))
	if g.Digest() == base {
		t.Error("structurally different graphs digest equal")
	}
}

func TestDigestInvalidatedByGrowth(t *testing.T) {
	g := buildDigestGraph("t", "a", "b", "f")
	d1 := g.Digest()
	// Adding a node must invalidate the cached digest.
	c, _ := g.AddPI("c")
	n := g.Nand(c, g.Outputs[0].Node)
	if d2 := g.Digest(); d2 == d1 {
		t.Error("digest not invalidated by new nodes")
	}
	// Adding only an output must as well (node count is unchanged).
	d2 := g.Digest()
	g.MarkOutput("g", n)
	if d3 := g.Digest(); d3 == d2 {
		t.Error("digest not invalidated by new output")
	}
}

func TestDigestMatchesFromNetworkRebuild(t *testing.T) {
	g1, err := FromNetwork(buildNet(t))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := FromNetwork(buildNet(t))
	if err != nil {
		t.Fatal(err)
	}
	if g1.Digest() != g2.Digest() {
		t.Errorf("FromNetwork rebuild digests differ: %s vs %s", g1.Digest(), g2.Digest())
	}
}
