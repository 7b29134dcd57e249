package subject

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// encodeCopy encodes and copies the key (Encode's buffer is reused).
func encodeCopy(e *ConeEncoder, g *Graph, n Node, depth int, fanouts bool, tag byte) []byte {
	key, _ := e.Encode(g, n, depth, fanouts, tag)
	return append([]byte(nil), key...)
}

// TestConeKeyDeterministic: the same root yields the same key from the
// same encoder across calls and from a freshly built encoder.
func TestConeKeyDeterministic(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	root := g.Nand(g.Nand(a, b), g.Not(c))
	e := NewConeEncoder()
	k1 := encodeCopy(e, g, root, 3, true, 7)
	k2 := encodeCopy(e, g, root, 3, true, 7)
	k3 := encodeCopy(NewConeEncoder(), g, root, 3, true, 7)
	if !bytes.Equal(k1, k2) || !bytes.Equal(k1, k3) {
		t.Fatalf("same cone produced different keys: %x %x %x", k1, k2, k3)
	}
	if k4 := encodeCopy(e, g, root, 3, true, 8); bytes.Equal(k1, k4) {
		t.Fatal("different tags produced equal keys")
	}
	if k5 := encodeCopy(e, g, root, 2, true, 7); bytes.Equal(k1, k5) {
		t.Fatal("different depths produced equal keys")
	}
}

// TestConeKeyIsomorphism: structurally identical cones over different
// nodes get equal keys; a kind difference anywhere inside the depth
// bound breaks equality.
func TestConeKeyIsomorphism(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	d, _ := g.AddPI("d")
	r1 := g.Nand(g.Nand(a, b), a)
	r2 := g.Nand(g.Nand(c, d), c)
	r3 := g.Nand(g.Not(c), c)
	e := NewConeEncoder()
	k1 := encodeCopy(e, g, r1, 4, false, 0)
	k2 := encodeCopy(e, g, r2, 4, false, 0)
	k3 := encodeCopy(e, g, r3, 4, false, 0)
	if !bytes.Equal(k1, k2) {
		t.Fatalf("isomorphic cones got different keys:\n%x\n%x", k1, k2)
	}
	if bytes.Equal(k1, k3) {
		t.Fatal("nand-fed and inv-fed roots got the same key")
	}
}

// TestConeKeyDepthBound: structure strictly below the depth bound must
// not influence the key; structure at the boundary must.
func TestConeKeyDepthBound(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	e0, _ := g.AddPI("e")
	// Children of the roots agree in kind (both Nand2); their fanins
	// (depth 2) differ: PIs vs a PI and an inverter.
	r1 := g.Nand(g.Nand(a, b), e0)
	r2 := g.Nand(g.Nand(a, g.Not(c)), e0)
	e := NewConeEncoder()
	if k1, k2 := encodeCopy(e, g, r1, 1, false, 0), encodeCopy(e, g, r2, 1, false, 0); !bytes.Equal(k1, k2) {
		t.Fatalf("depth-1 keys see depth-2 structure:\n%x\n%x", k1, k2)
	}
	if k1, k2 := encodeCopy(e, g, r1, 2, false, 0), encodeCopy(e, g, r2, 2, false, 0); bytes.Equal(k1, k2) {
		t.Fatal("depth-2 keys blind to depth-2 structure")
	}
}

// TestConeKeySharing: a node reached twice inside the cone is encoded
// as a back-reference, so a reconvergent cone and its unfolded tree
// twin are distinguished.
func TestConeKeySharing(t *testing.T) {
	shared := NewGraph("shared", true)
	a, _ := shared.AddPI("a")
	b, _ := shared.AddPI("b")
	m := shared.Nand(a, b)
	rShared := shared.Nand(m, shared.Not(m)) // m visited twice

	tree := NewGraph("tree", false) // no strashing: duplicates stay distinct
	c, _ := tree.AddPI("c")
	d, _ := tree.AddPI("d")
	m1 := tree.Nand(c, d)
	m2 := tree.Nand(c, d)
	rTree := tree.Nand(m1, tree.Not(m2))

	e := NewConeEncoder()
	kShared := encodeCopy(e, shared, rShared, 4, false, 0)
	kTree := encodeCopy(e, tree, rTree, 4, false, 0)
	if bytes.Equal(kShared, kTree) {
		t.Fatal("shared and unfolded cones got the same key")
	}
	// The shared cone revisits m: exactly one back-reference op.
	if n := bytes.Count(kShared[3:], []byte{coneOpRef}); n != 1 {
		t.Fatalf("shared cone encoded %d back-references, want 1 (key %x)", n, kShared)
	}
}

// TestConeKeyFanouts: interior fanout counts and output bindings are
// part of the key only when requested, and the root's own never are.
func TestConeKeyFanouts(t *testing.T) {
	build := func(extraInteriorFanout, interiorOutput, extraRootFanout bool) (*Graph, Node) {
		g := NewGraph("t", true)
		a, _ := g.AddPI("a")
		b, _ := g.AddPI("b")
		c, _ := g.AddPI("c")
		mid := g.Nand(a, b)
		root := g.Nand(mid, c)
		if extraInteriorFanout {
			g.MarkOutput("x", g.Not(mid)) // mid gains a fanout outside the cone
		}
		if interiorOutput {
			g.MarkOutput("m", mid) // mid drives an output, its fanouts unchanged
		}
		if extraRootFanout {
			g.MarkOutput("y", g.Not(root))
			g.MarkOutput("r", root)
		}
		return g, root
	}
	e := NewConeEncoder()
	gPlain, plain := build(false, false, false)
	gInterior, interior := build(true, false, false)
	gOutput, output := build(false, true, false)
	gRootFO, rootFO := build(false, false, true)
	kPlain := encodeCopy(e, gPlain, plain, 3, true, 0)
	kInterior := encodeCopy(e, gInterior, interior, 3, true, 0)
	kOutput := encodeCopy(e, gOutput, output, 3, true, 0)
	kRootFO := encodeCopy(e, gRootFO, rootFO, 3, true, 0)
	if bytes.Equal(kPlain, kInterior) {
		t.Fatal("withFanouts key blind to an interior fanout difference")
	}
	if bytes.Equal(kPlain, kOutput) || bytes.Equal(kInterior, kOutput) {
		t.Fatal("withFanouts key blind to an interior output binding")
	}
	if !bytes.Equal(kPlain, kRootFO) {
		t.Fatal("withFanouts key depends on the root's own fanouts or outputs")
	}
	// Without fanouts, the interior differences must disappear.
	k1 := encodeCopy(e, gPlain, plain, 3, false, 0)
	k2 := encodeCopy(e, gInterior, interior, 3, false, 0)
	k3 := encodeCopy(e, gOutput, output, 3, false, 0)
	if !bytes.Equal(k1, k2) || !bytes.Equal(k1, k3) {
		t.Fatal("fanout-free key still sees interior fanouts or outputs")
	}
}

// TestConeIndex: the returned nodes are in BFS order, ConeIndex
// inverts that order, and nodes outside the cone report -1.
func TestConeIndex(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	root := g.Nand(g.Nand(a, b), c)
	outside := g.Nand(a, c) // not reachable from root
	e := NewConeEncoder()
	_, nodes := e.Encode(g, root, 3, false, 0)
	if len(nodes) == 0 || nodes[0] != root {
		t.Fatalf("first visited node is %v, want the root", nodes[0])
	}
	for i, n := range nodes {
		if got := e.ConeIndex(n); got != int32(i) {
			t.Errorf("ConeIndex(%v) = %d, want %d", n, got, i)
		}
	}
	if got := e.ConeIndex(outside); got != -1 {
		t.Errorf("ConeIndex(outside) = %d, want -1", got)
	}
}

// TestConeEncoderReset: Reset drops the scratch and work counters, and
// the encoder still produces identical keys afterwards.
func TestConeEncoderReset(t *testing.T) {
	g := NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	root := g.Nand(g.Not(a), b)
	e := NewConeEncoder()
	before := encodeCopy(e, g, root, 2, true, 1)
	e.Reset()
	if got := e.ConeIndex(root); got != -1 {
		t.Fatalf("ConeIndex after Reset = %d, want -1", got)
	}
	if len(e.nodes) != 0 || len(e.slot) != 0 || e.epoch != 0 {
		t.Fatal("Reset left scratch populated")
	}
	if n, b := e.Work(); n != 0 || b != 0 {
		t.Fatalf("Reset left work counters %d nodes, %d key bytes", n, b)
	}
	after := encodeCopy(e, g, root, 2, true, 1)
	if !bytes.Equal(before, after) {
		t.Fatalf("key changed across Reset: %x vs %x", before, after)
	}
}

// TestConeKeyRandomRebuildStability: rebuilding the same random graph
// gives byte-identical keys node for node: a key depends on the cone's
// structure alone, not on the graph object or its build history.
func TestConeKeyRandomRebuildStability(t *testing.T) {
	build := func(seed int64) *Graph {
		rng := rand.New(rand.NewSource(seed))
		g := NewGraph("r", true)
		var pool []Node
		for i := 0; i < 6; i++ {
			pi, _ := g.AddPI(fmt.Sprintf("i%d", i))
			pool = append(pool, pi)
		}
		for g.NumNodes() < 6+80 {
			if rng.Intn(3) == 0 {
				pool = append(pool, g.Not(pool[rng.Intn(len(pool))]))
			} else {
				x, y := pool[rng.Intn(len(pool))], pool[rng.Intn(len(pool))]
				if x == y {
					continue
				}
				pool = append(pool, g.Nand(x, y))
			}
		}
		return g
	}
	for seed := int64(1); seed <= 5; seed++ {
		g1, g2 := build(seed), build(seed)
		if g1.NumNodes() != g2.NumNodes() {
			t.Fatalf("seed %d: rebuild sizes differ", seed)
		}
		e1, e2 := NewConeEncoder(), NewConeEncoder()
		for i := 0; i < g1.NumNodes(); i++ {
			k1 := encodeCopy(e1, g1, Node(i), 4, true, 0)
			k2 := encodeCopy(e2, g2, Node(i), 4, true, 0)
			if !bytes.Equal(k1, k2) {
				t.Fatalf("seed %d node %d: rebuilt key differs:\n%x\n%x", seed, i, k1, k2)
			}
		}
	}
}
