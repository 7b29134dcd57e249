package match

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"dagcover/internal/libgen"
	"dagcover/internal/subject"
)

// matchSet collects the canonical signatures of all matches at every
// node of a graph, per node, in yield order.
func matchSet(m *Matcher, g *subject.Graph, class Class) [][]string {
	out := make([][]string, g.NumNodes())
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		for _, mt := range m.AllMatches(g, n, class) {
			out[i] = append(out[i], signature(mt))
		}
	}
	return out
}

func equalSets(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// Property: the root-signature index is a pure pre-filter — with and
// without it, enumeration yields the same matches in the same order at
// every node, while trying strictly fewer pattern plans.
func TestSignatureIndexEquivalence(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	indexed := NewMatcher(pats)
	full := NewMatcher(pats, WithoutSignatureIndex())
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 8; trial++ {
		g, _ := randomSubject(rng, 4+rng.Intn(4), 30+rng.Intn(40))
		for _, class := range []Class{Exact, Standard, Extended} {
			i0, f0 := indexed.PatternsTried(), full.PatternsTried()
			a := matchSet(indexed, g, class)
			b := matchSet(full, g, class)
			if !equalSets(a, b) {
				t.Fatalf("trial %d class %v: indexed and full enumerations differ", trial, class)
			}
			iTried, fTried := indexed.PatternsTried()-i0, full.PatternsTried()-f0
			if iTried >= fTried {
				t.Errorf("trial %d class %v: index tried %d plans, full scan %d — no reduction",
					trial, class, iTried, fTried)
			}
		}
	}
}

// With choices set the index must disable itself (class members can
// have different local shapes); enumeration must still be identical.
func TestSignatureIndexDisabledUnderChoices(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	// Two structures for a 3-way conjunction head.
	n1 := g.Nand(g.Not(g.Nand(a, b)), c)
	n2 := g.Nand(a, g.Not(g.Nand(b, c)))
	ch := subject.NewChoices()
	ch.Declare(n1, n2)
	indexed := NewMatcher(pats)
	indexed.SetChoices(ch)
	full := NewMatcher(pats, WithoutSignatureIndex())
	full.SetChoices(ch)
	top := g.Not(n1)
	am := indexed.AllMatches(g, top, Standard)
	bm := full.AllMatches(g, top, Standard)
	if len(am) != len(bm) {
		t.Fatalf("choice enumeration differs: %d vs %d matches", len(am), len(bm))
	}
	for i := range am {
		if signature(am[i]) != signature(bm[i]) {
			t.Errorf("match %d differs: %s vs %s", i, signature(am[i]), signature(bm[i]))
		}
	}
}

// Clone aliasing contract: two clones enumerating concurrently on the
// same graph yield exactly the parent's match sets. Run with -race to
// catch any shared scratch state (step bindings, one-to-one stamps, epochs, completion buffers).
func TestCloneConcurrentEnumeration(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	parent := NewMatcher(pats)
	rng := rand.New(rand.NewSource(11))
	g, _ := randomSubject(rng, 6, 120)
	want := matchSet(parent, g, Standard)

	const clones = 4
	got := make([][][]string, clones)
	var wg sync.WaitGroup
	for i := 0; i < clones; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = matchSet(parent.Clone(), g, Standard)
		}(i)
	}
	wg.Wait()
	for i := 0; i < clones; i++ {
		if !equalSets(got[i], want) {
			t.Errorf("clone %d produced a different match set", i)
		}
	}
}

// Clones share the compiled plans and the signature index but not the
// tried counter.
func TestClonePatternsTriedIndependent(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib441(), true))
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	n := g.Nand(a, b)
	m.AllMatches(g, n, Standard)
	if m.PatternsTried() == 0 {
		t.Fatal("parent counted no pattern trials")
	}
	c := m.Clone()
	if c.PatternsTried() != 0 {
		t.Errorf("clone starts with %d trials, want 0", c.PatternsTried())
	}
	c.AllMatches(g, n, Standard)
	if c.PatternsTried() != m.PatternsTried() {
		t.Errorf("clone tried %d, parent %d — same work should count the same",
			c.PatternsTried(), m.PatternsTried())
	}
}

// The index buckets stay in ascending pattern order, which is what
// keeps tie-breaking identical to the full scan.
func TestSignatureIndexBucketOrder(t *testing.T) {
	m := NewMatcher(compile(t, libgen.Lib443(), true))
	for sig := range m.sigTries {
		bucket := m.sigTries[sig].pats
		if !sort.SliceIsSorted(bucket, func(i, j int) bool { return bucket[i] < bucket[j] }) {
			t.Errorf("signature %d: bucket not in ascending pattern order", sig)
		}
	}
}
