package match

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/subject"
)

func compile(t testing.TB, lib *genlib.Library, share bool) []*subject.Pattern {
	t.Helper()
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: share})
	if err != nil {
		t.Fatal(err)
	}
	return pats
}

func TestNandAndInvMatch(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib441(), true))
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	n := g.Nand(a, b)
	i := g.Not(n)

	matches := m.AllMatches(g, n, Standard)
	if len(matches) == 0 {
		t.Fatal("no matches at NAND node")
	}
	foundNand2 := false
	for _, mt := range matches {
		if mt.Pattern.Gate.Name == "nand2" {
			foundNand2 = true
			if len(mt.Leaves) != 2 {
				t.Fatalf("nand2 leaves = %v", mt.Leaves)
			}
			got := map[subject.Node]bool{mt.Leaves[0]: true, mt.Leaves[1]: true}
			if !got[a] || !got[b] {
				t.Errorf("nand2 leaves = %v, want {a,b}", mt.Leaves)
			}
		}
	}
	if !foundNand2 {
		t.Error("nand2 gate did not match a NAND node")
	}

	matches = m.AllMatches(g, i, Standard)
	names := map[string]bool{}
	for _, mt := range matches {
		names[mt.Pattern.Gate.Name] = true
	}
	// INV node over NAND(a,b) should match inv (leaf=n) and and2-like
	// gates if present (44-1 has none), so at least inv.
	if !names["inv"] {
		t.Errorf("matches at inverter = %v, missing inv", names)
	}
	// No matches at a PI.
	if ms := m.AllMatches(g, a, Standard); len(ms) != 0 {
		t.Errorf("matches at PI: %d", len(ms))
	}
}

func TestAOIMatchStructure(t *testing.T) {
	lib := libgen.Lib2()
	m := NewMatcher(compile(t, lib, true))
	// Subject: f = !(x*y + z) decomposed the same way as the pattern.
	g := subject.NewGraph("t", true)
	x, _ := g.AddPI("x")
	y, _ := g.AddPI("y")
	z, _ := g.AddPI("z")
	root, err := g.Build(logic.MustParse("!(x*y+z)"), map[string]subject.Node{"x": x, "y": y, "z": z})
	if err != nil {
		t.Fatal(err)
	}
	var aoi *Match
	for _, mt := range m.AllMatches(g, root, Standard) {
		if mt.Pattern.Gate.Name == "aoi21" {
			aoi = mt
			break
		}
	}
	if aoi == nil {
		t.Fatal("aoi21 did not match its own decomposition")
	}
	// Pins a,b -> {x,y}; pin c -> z.
	gate := aoi.Pattern.Gate
	pinOf := func(name string) subject.Node {
		for i, p := range gate.Pins {
			if p.Name == name {
				return aoi.Leaves[i]
			}
		}
		t.Fatalf("aoi21 has no pin %q", name)
		return 0
	}
	if pinOf("c") != z {
		t.Errorf("pin c bound to %v, want z", pinOf("c"))
	}
	ab := map[subject.Node]bool{pinOf("a"): true, pinOf("b"): true}
	if !ab[x] || !ab[y] {
		t.Errorf("pins a,b bound to %v,%v, want {x,y}", pinOf("a"), pinOf("b"))
	}
}

// Figure 1: a pattern whose two distinct nodes must both map to the
// same subject node matches extended but not standard.
func TestFigure1StandardVsExtended(t *testing.T) {
	// Pattern gate: O = !(a * !b)  -> NAND2(a, INV(b)) with distinct
	// leaves a and b.
	lib := genlib.NewLibrary("fig1")
	g := &genlib.Gate{Name: "andnot", Area: 2, Output: "O", Expr: logic.MustParse("!(a*!b)")}
	g.Pins = []genlib.Pin{
		{Name: "a", RiseBlock: 1, FallBlock: 1},
		{Name: "b", RiseBlock: 1, FallBlock: 1},
	}
	if err := lib.Add(g); err != nil {
		t.Fatal(err)
	}
	m := NewMatcher(compile(t, lib, true))

	// Subject: top = NAND2(n, INV(n)) where n = NAND2(p,q): binding
	// must map both pattern leaves a and b to n.
	sg := subject.NewGraph("t", true)
	p, _ := sg.AddPI("p")
	q, _ := sg.AddPI("q")
	n := sg.Nand(p, q)
	top := sg.Nand(n, sg.Not(n))

	std := m.AllMatches(sg, top, Standard)
	for _, mt := range std {
		if mt.Pattern.Gate.Name == "andnot" {
			t.Fatalf("standard match should not exist (one-to-one violated): %v", mt.Leaves)
		}
	}
	ext := m.AllMatches(sg, top, Extended)
	found := false
	for _, mt := range ext {
		if mt.Pattern.Gate.Name == "andnot" {
			found = true
			if mt.Leaves[0] != n || mt.Leaves[1] != n {
				t.Errorf("extended match leaves = %v, want both n", mt.Leaves)
			}
		}
	}
	if !found {
		t.Fatal("extended match not found (Figure 1)")
	}
}

// Exact matches must not cover internal nodes that fan out of the
// match; standard matches may.
func TestExactVsStandardFanout(t *testing.T) {
	lib := libgen.Lib2()
	m := NewMatcher(compile(t, lib, true))
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	nab := g.Nand(a, b)    // will get a second fanout
	and := g.Not(nab)      // and2 root: covers nab internally
	side := g.Nand(nab, c) // extra fanout of nab
	g.MarkOutput("side", side)

	hasGate := func(ms []*Match, name string) bool {
		for _, mt := range ms {
			if mt.Pattern.Gate.Name == name {
				return true
			}
		}
		return false
	}
	if !hasGate(m.AllMatches(g, and, Standard), "and2") {
		t.Error("standard match for and2 missing despite fanout")
	}
	if hasGate(m.AllMatches(g, and, Exact), "and2") {
		t.Error("exact match for and2 found although nab fans out of the match")
	}
	// inv always matches at the INV node in both classes (nab is a
	// leaf there, not covered).
	if !hasGate(m.AllMatches(g, and, Exact), "inv") {
		t.Error("exact inv match missing")
	}
}

// XOR matching across classes: a private XOR cone matches in every
// class; when one of its inverters is shared with other logic, the
// exact class rejects the match (fanout crosses the cover) while
// standard still accepts it.
func TestXorPatternClasses(t *testing.T) {
	lib := libgen.Lib2()
	m := NewMatcher(compile(t, lib, true))

	hasXor := func(ms []*Match) bool {
		for _, mt := range ms {
			if mt.Pattern.Gate.Name == "xor2" {
				return true
			}
		}
		return false
	}

	// Private cone: all classes match.
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	root, err := g.Build(logic.MustParse("a^b"), map[string]subject.Node{"a": a, "b": b})
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []Class{Exact, Standard, Extended} {
		if !hasXor(m.AllMatches(g, root, class)) {
			t.Errorf("xor2 should match a private XOR cone with class %v", class)
		}
	}

	// Shared inverter: INV(a) also feeds extra logic.
	g2 := subject.NewGraph("t", true)
	a2, _ := g2.AddPI("a")
	b2, _ := g2.AddPI("b")
	c2, _ := g2.AddPI("c")
	root2, err := g2.Build(logic.MustParse("a^b"), map[string]subject.Node{"a": a2, "b": b2})
	if err != nil {
		t.Fatal(err)
	}
	side := g2.Nand(g2.Not(a2), c2) // second fanout on INV(a)
	g2.MarkOutput("side", side)
	if hasXor(m.AllMatches(g2, root2, Exact)) {
		t.Error("exact xor2 match found although INV(a) fans out of the cover")
	}
	if !hasXor(m.AllMatches(g2, root2, Standard)) {
		t.Error("standard xor2 match missing despite only external fanout")
	}
}

// Soundness: for every enumerated match, gate(leaf exprs) must equal
// the subject function at the root.
func TestMatchSoundness(t *testing.T) {
	lib := libgen.Lib2()
	m := NewMatcher(compile(t, lib, true))
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 15; trial++ {
		g, _ := randomSubject(rng, 4, 25)
		checked := 0
		for i := 0; i < g.NumNodes(); i++ {
			n := subject.Node(i)
			if g.KindOf(n) == subject.PI {
				continue
			}
			for _, class := range []Class{Exact, Standard, Extended} {
				for _, mt := range m.AllMatches(g, n, class) {
					if err := Verify(mt, class); err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					checkMatchFunction(t, g, mt)
					checked++
				}
			}
		}
		if checked == 0 {
			t.Fatalf("trial %d: no matches checked", trial)
		}
	}
}

// checkMatchFunction verifies gate semantics of a match by simulation:
// the gate function applied to the leaf node values must reproduce the
// root node value on random vectors. (A cut-based expression check
// would be wrong: extended matches may bind a leaf to a node that is
// also covered internally, in which case the leaf set is not a proper
// cut — yet the match is still functionally sound because the leaf
// value is by construction consistent with the internal node.)
func checkMatchFunction(t *testing.T, g *subject.Graph, mt *Match) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(mt.Root)*1315423911 + 7))
	for round := 0; round < 4; round++ {
		in := map[string]uint64{}
		for _, pi := range g.PIs {
			in[g.NameOf(pi)] = rng.Uint64()
		}
		vals, err := g.Eval(in)
		if err != nil {
			t.Fatal(err)
		}
		assign := map[string]uint64{}
		for pin, leaf := range mt.Leaves {
			assign[mt.Pattern.Gate.Pins[pin].Name] = vals[leaf]
		}
		got := mt.Pattern.Gate.Expr.EvalBatch(assign)
		if got != vals[mt.Root] {
			t.Fatalf("unsound match of %q at %v: gate output %x, root value %x",
				mt.Pattern.Gate.Name, mt.Root, got, vals[mt.Root])
		}
	}
}

// randomSubject builds a random strashed subject graph.
func randomSubject(rng *rand.Rand, nPI, nOps int) (*subject.Graph, []subject.Node) {
	g := subject.NewGraph("rand", true)
	var pool []subject.Node
	for i := 0; i < nPI; i++ {
		pi, _ := g.AddPI(fmt.Sprintf("i%d", i))
		pool = append(pool, pi)
	}
	for g.NumNodes() < nPI+nOps {
		if rng.Intn(3) == 0 {
			pool = append(pool, g.Not(pool[rng.Intn(len(pool))]))
		} else {
			x := pool[rng.Intn(len(pool))]
			y := pool[rng.Intn(len(pool))]
			if x == y {
				continue
			}
			pool = append(pool, g.Nand(x, y))
		}
	}
	return g, pool
}

// canonical signature for pruning-equivalence comparison: gate plus
// the multiset of (leaf, pinDelay) pairs plus the covered set.
func signature(mt *Match) string {
	var parts []string
	for pin, leaf := range mt.Leaves {
		parts = append(parts, fmt.Sprintf("%d@%v", leaf, mt.Pattern.Gate.Pins[pin].Intrinsic()))
	}
	sort.Strings(parts)
	var cov []string
	for _, c := range mt.Covered {
		cov = append(cov, fmt.Sprintf("%d", c))
	}
	sort.Strings(cov)
	return mt.Pattern.Gate.Name + "|" + strings.Join(parts, ",") + "|" + strings.Join(cov, ",")
}

// Property: symmetry pruning loses no cost-distinct matches.
func TestSymmetryPruningEquivalence(t *testing.T) {
	lib := libgen.Lib2()
	pats := compile(t, lib, true)
	pruned := NewMatcher(pats)
	full := NewMatcher(pats, WithoutSymmetryPruning())
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 10; trial++ {
		g, _ := randomSubject(rng, 4, 30)
		for i := 0; i < g.NumNodes(); i++ {
			n := subject.Node(i)
			for _, class := range []Class{Exact, Standard, Extended} {
				a := map[string]bool{}
				for _, mt := range pruned.AllMatches(g, n, class) {
					a[signature(mt)] = true
				}
				b := map[string]bool{}
				for _, mt := range full.AllMatches(g, n, class) {
					b[signature(mt)] = true
				}
				for sig := range b {
					if !a[sig] {
						t.Fatalf("trial %d class %v: pruning lost %s at %v", trial, class, sig, n)
					}
				}
				for sig := range a {
					if !b[sig] {
						t.Fatalf("trial %d class %v: pruning invented %s at %v", trial, class, sig, n)
					}
				}
			}
		}
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib443(), true))
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	n := g.Nand(g.Not(g.Nand(a, b)), g.Not(g.Nand(b, c)))
	count := 0
	m.Enumerate(g, n, Standard, func(*Match) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Errorf("early stop failed: %d yields", count)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib441(), true))
	c := m.Clone()
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	n := g.Nand(a, b)
	m1 := m.AllMatches(g, n, Standard)
	m2 := c.AllMatches(g, n, Standard)
	if len(m1) != len(m2) {
		t.Errorf("clone found %d matches, original %d", len(m2), len(m1))
	}
}

func TestTiedInputsExtendedOnly(t *testing.T) {
	// Subject NAND(x,x) (buildable only without sharing — strashing
	// folds it to an inverter): nand2's two leaves must bind to the
	// same node, which only extended allows.
	m := NewMatcher(compile(t, libgen.Lib441(), true))
	g := subject.NewGraph("t", false)
	x, _ := g.AddPI("x")
	n := g.Nand(x, x)
	std := m.AllMatches(g, n, Standard)
	if len(std) != 0 {
		t.Errorf("standard matched tied-input NAND: %v", std[0].Pattern.Gate.Name)
	}
	ext := m.AllMatches(g, n, Extended)
	if len(ext) == 0 {
		t.Error("extended match missing for tied-input NAND")
	}
}

func TestClassString(t *testing.T) {
	if Exact.String() != "exact" || Standard.String() != "standard" || Extended.String() != "extended" {
		t.Error("class strings wrong")
	}
}
