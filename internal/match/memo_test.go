package match

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/subject"
	"dagcover/internal/supergate"
)

// memoMatcher builds a matcher with a fresh memo table over lib's
// shared patterns.
func memoMatcher(t *testing.T, pats []*subject.Pattern, maxEntries int) *Matcher {
	t.Helper()
	m := NewMatcher(pats, WithMemo(NewMemo(maxEntries)))
	if m.Memo() == nil || !m.MemoEnabled() {
		t.Fatal("memo not active on construction")
	}
	return m
}

// Property: memoization is invisible. For every node and class, the
// memoized matcher yields exactly the memo-less matcher's sequence —
// same matches, same order — and counts exactly the same pattern
// plans, on the cold pass (recording) and the warm pass (replaying).
func TestMemoReplayEquivalence(t *testing.T) {
	for _, lib := range []struct {
		name string
		pats []*subject.Pattern
	}{
		{"44-1", compile(t, libgen.Lib441(), true)},
		{"44-3", compile(t, libgen.Lib443(), true)},
	} {
		t.Run(lib.name, func(t *testing.T) {
			plain := NewMatcher(lib.pats)
			memo := memoMatcher(t, lib.pats, 0)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 6; trial++ {
				g, _ := randomSubject(rng, 4+rng.Intn(4), 30+rng.Intn(50))
				for _, class := range []Class{Exact, Standard, Extended} {
					p0, m0 := plain.PatternsTried(), memo.PatternsTried()
					want := matchSet(plain, g, class)
					cold := matchSet(memo, g, class)
					if !equalSets(want, cold) {
						t.Fatalf("trial %d class %v: cold memoized enumeration differs", trial, class)
					}
					coldTried := memo.PatternsTried() - m0
					warm := matchSet(memo, g, class)
					if !equalSets(want, warm) {
						t.Fatalf("trial %d class %v: warm memoized enumeration differs", trial, class)
					}
					plainTried := plain.PatternsTried() - p0
					warmTried := memo.PatternsTried() - m0 - coldTried
					if coldTried != plainTried || warmTried != plainTried {
						t.Fatalf("trial %d class %v: plans tried diverged: plain %d cold %d warm %d",
							trial, class, plainTried, coldTried, warmTried)
					}
				}
			}
			if memo.MemoHits() == 0 {
				t.Fatal("warm passes produced no memo hits")
			}
		})
	}
}

type namedPatterns struct {
	name string
	pats []*subject.Pattern
}

// memoLibs are the pattern sets the key-depth properties run over:
// every built-in library plus a supergate-expanded one, whose deeper
// patterns spread the per-bucket key depths furthest apart.
func memoLibs(t *testing.T) []namedPatterns {
	t.Helper()
	sg, err := supergate.Generate(libgen.Lib441(), supergate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return []namedPatterns{
		{"lib2", compile(t, libgen.Lib2(), true)},
		{"44-1", compile(t, libgen.Lib441(), true)},
		{"44-3", compile(t, libgen.Lib443(), true)},
		{"44-1+sg", compile(t, sg.Library, true)},
	}
}

// coneRelative serializes a node's matches with every binding rewritten
// to its cone index, making match lists comparable across roots. The
// cone is encoded at the depth the memo keys root at.
func coneRelative(t *testing.T, m *Matcher, e *subject.ConeEncoder, g *subject.Graph, root subject.Node, class Class) []string {
	t.Helper()
	_, depth := m.memoKeyDepth(g, root)
	e.Encode(g, root, depth, class == Exact, memoKeyTag(class, m.index))
	var out []string
	for _, mt := range m.AllMatches(g, root, class) {
		var sb strings.Builder
		sb.WriteString(mt.Pattern.Gate.Name)
		for _, leaf := range mt.Leaves {
			fmt.Fprintf(&sb, " l%d", e.ConeIndex(leaf))
		}
		for _, cov := range mt.Covered {
			fmt.Fprintf(&sb, " c%d", e.ConeIndex(cov))
		}
		out = append(out, sb.String())
	}
	return out
}

// Property: equal cone keys imply identical match lists up to node
// identity — the invariant the memo's correctness rests on. Keys are
// computed at the root's signature-bucket depth, as the memo computes
// them, and verified against a memo-less matcher so the check is about
// the key, not the replay machinery.
func TestMemoEqualKeysEqualMatches(t *testing.T) {
	for _, lib := range memoLibs(t) {
		t.Run(lib.name, func(t *testing.T) {
			m := NewMatcher(lib.pats)
			rng := rand.New(rand.NewSource(41))
			shared := 0
			for trial := 0; trial < 4; trial++ {
				g, _ := randomSubject(rng, 5, 120)
				for _, class := range []Class{Exact, Standard} {
					e1, e2 := subject.NewConeEncoder(), subject.NewConeEncoder()
					byKey := make(map[string]subject.Node)
					byKeyMatches := make(map[string][]string)
					for i := 0; i < g.NumNodes(); i++ {
						n := subject.Node(i)
						if g.KindOf(n) == subject.PI {
							continue
						}
						_, depth := m.memoKeyDepth(g, n)
						key, _ := e1.Encode(g, n, depth, class == Exact, memoKeyTag(class, m.index))
						ms := coneRelative(t, m, e2, g, n, class)
						prev, ok := byKeyMatches[string(key)]
						if !ok {
							byKey[string(key)] = n
							byKeyMatches[string(key)] = ms
							continue
						}
						shared++
						if len(prev) != len(ms) {
							t.Fatalf("trial %d class %v: nodes %v and %v share a key but have %d vs %d matches",
								trial, class, byKey[string(key)], n, len(prev), len(ms))
						}
						for i := range prev {
							if prev[i] != ms[i] {
								t.Fatalf("trial %d class %v: equal-key nodes %v and %v diverge at match %d:\n%s\n%s",
									trial, class, byKey[string(key)], n, i, prev[i], ms[i])
							}
						}
					}
				}
			}
			if shared == 0 {
				t.Fatal("no two nodes shared a key; the property was never exercised")
			}
		})
	}
}

// keyDepth[sig] is the deepest pattern that can embed at a root of
// signature sig, floored at the signature depth — computed here from
// the patterns' signature sets, independently of the index buckets.
func TestMemoKeyDepthPerBucket(t *testing.T) {
	for _, lib := range memoLibs(t) {
		t.Run(lib.name, func(t *testing.T) {
			m := NewMatcher(lib.pats)
			want := make([]int, subject.NumSignatures)
			for i := range want {
				want[i] = 2
			}
			deepest := 0
			for _, p := range lib.pats {
				for _, sig := range subject.PatternSignatures(p.Graph, p.Root) {
					want[sig] = max(want[sig], p.Depth)
				}
				deepest = max(deepest, p.Depth)
			}
			shallower := 0
			for sig := range want {
				if m.keyDepth[sig] != want[sig] {
					t.Errorf("keyDepth[%d] = %d, want %d", sig, m.keyDepth[sig], want[sig])
				}
				if want[sig] < m.memoDepth {
					shallower++
				}
			}
			if m.memoDepth != max(2, deepest) {
				t.Errorf("memoDepth = %d, want %d", m.memoDepth, max(2, deepest))
			}
			if shallower == 0 {
				t.Error("no bucket keys shallower than the library depth")
			}
			if c := m.Clone(); &c.keyDepth[0] != &m.keyDepth[0] {
				t.Error("Clone copied the key-depth table instead of sharing it")
			}
		})
	}
}

// memoKeyDepths returns the depth byte of every key in the table.
func memoKeyDepths(memo *Memo) map[int]int {
	depths := make(map[int]int)
	for i := range memo.shards {
		for k := range memo.shards[i].m {
			depths[int(k[1])]++
		}
	}
	return depths
}

// With the signature index off the walk may try any pattern of the
// root's kind, so every key is computed at the library-wide depth; with
// it on, keys are scoped to the buckets and some are shallower.
func TestMemoKeyDepthIndexOff(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	rng := rand.New(rand.NewSource(17))
	g, _ := randomSubject(rng, 6, 200)

	off := NewMatcher(pats, WithoutSignatureIndex(), WithMemo(NewMemo(0)))
	matchSet(off, g, Standard)
	depths := memoKeyDepths(off.Memo())
	if len(depths) != 1 || depths[off.memoDepth] == 0 {
		t.Fatalf("index off: key depths %v, want all %d", depths, off.memoDepth)
	}
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		if sig, d := off.memoKeyDepth(g, n); sig != -1 || d != off.memoDepth {
			t.Fatalf("index off: node %v keyed at (sig %d, depth %d), want (-1, %d)", n, sig, d, off.memoDepth)
		}
	}

	on := NewMatcher(pats, WithMemo(NewMemo(0)))
	matchSet(on, g, Standard)
	shallow := 0
	for d, n := range memoKeyDepths(on.Memo()) {
		if d > on.memoDepth {
			t.Errorf("index on: %d keys at depth %d, deeper than the library (%d)", n, d, on.memoDepth)
		}
		if d < on.memoDepth {
			shallow += n
		}
	}
	if shallow == 0 {
		t.Error("index on: no key was scoped below the library depth")
	}
}

// deepChain is a two-input gate whose NAND2 decomposition nests levels
// deep: !(a*!(b*!(a*...))). It exists only to push a bucket's key depth
// past maxMemoDepth.
func deepChain(levels int) *genlib.Gate {
	expr := "a"
	for i := 0; i < levels; i++ {
		v := "ab"[i%2 : i%2+1]
		expr = "!(" + v + "*" + expr + ")"
	}
	e := logic.MustParse(expr)
	g := &genlib.Gate{Name: "deepchain", Area: 40, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{
			Name: v, Phase: genlib.PhaseUnknown, InputLoad: 1, MaxLoad: 999,
			RiseBlock: 1, FallBlock: 1,
		})
	}
	return g
}

// One pattern deeper than maxMemoDepth turns the memo off only for
// roots in its signature buckets: every other root still records and
// hits, and the enumeration — including the deep gate's own match —
// stays identical to the memo-less walk.
func TestMemoDepthGuardPerRoot(t *testing.T) {
	lib := libgen.Lib441()
	if err := lib.Add(deepChain(maxMemoDepth + 4)); err != nil {
		t.Fatal(err)
	}
	pats := compile(t, lib, true)
	plain := NewMatcher(pats)
	m := memoMatcher(t, pats, 0)
	if m.memoDepth <= maxMemoDepth {
		t.Fatalf("library depth %d does not exceed the guard %d", m.memoDepth, maxMemoDepth)
	}

	rng := rand.New(rand.NewSource(3))
	g, pool := randomSubject(rng, 6, 150)
	a, b := pool[0], pool[1]
	chain := a
	for i := 0; i < maxMemoDepth+4; i++ {
		chain = g.Nand([]subject.Node{a, b}[i%2], chain)
	}

	deepRoots, shallowRoots := 0, 0
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		if _, d := m.memoKeyDepth(g, n); d > maxMemoDepth {
			deepRoots++
		} else {
			shallowRoots++
		}
	}
	if deepRoots == 0 || shallowRoots == 0 {
		t.Fatalf("want roots on both sides of the guard, got %d deep and %d shallow", deepRoots, shallowRoots)
	}

	want := matchSet(plain, g, Standard)
	found := false
	for _, s := range want[chain] {
		found = found || strings.HasPrefix(s, "deepchain|")
	}
	if !found {
		t.Fatal("the deep gate does not match its own chain")
	}
	for pass, name := range []string{"cold", "warm"} {
		h0, m0 := m.MemoHits(), m.MemoMisses()
		if got := matchSet(m, g, Standard); !equalSets(want, got) {
			t.Fatalf("%s pass: memoized enumeration differs from the plain walk", name)
		}
		hits, misses := m.MemoHits()-h0, m.MemoMisses()-m0
		if hits+misses != shallowRoots {
			t.Errorf("%s pass: %d memo consultations, want one per shallow root (%d)", name, hits+misses, shallowRoots)
		}
		if pass == 1 && misses != 0 {
			t.Errorf("warm pass: %d misses on shallow roots", misses)
		}
	}
	if plain.PatternsTried()*2 != m.PatternsTried() {
		t.Errorf("plans tried: plain %d per pass, memoized %d over two passes", plain.PatternsTried(), m.PatternsTried())
	}
}

// A warm memo hit is allocation-free: the key is built in the encoder's
// buffer, the map probe does not copy it, and the replay fills the
// matcher's one reused Match.
func TestMemoHitAllocs(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	m := memoMatcher(t, pats, 0)
	rng := rand.New(rand.NewSource(8))
	g, _ := randomSubject(rng, 6, 200)
	var roots []subject.Node
	for i := 0; i < g.NumNodes(); i++ {
		if n := subject.Node(i); g.KindOf(n) != subject.PI {
			roots = append(roots, n)
		}
	}
	matches := 0
	yield := func(mt *Match) bool {
		matches += len(mt.Leaves)
		return true
	}
	for _, class := range []Class{Exact, Standard, Extended} {
		for _, n := range roots {
			m.Enumerate(g, n, class, yield)
		}
		misses := m.MemoMisses()
		allocs := testing.AllocsPerRun(20, func() {
			for _, n := range roots {
				m.Enumerate(g, n, class, yield)
			}
		})
		if m.MemoMisses() != misses {
			t.Fatalf("class %v: warm passes missed %d times", class, m.MemoMisses()-misses)
		}
		if allocs != 0 {
			t.Errorf("class %v: warm memo-hit pass over %d roots allocates %v times, want 0", class, len(roots), allocs)
		}
	}
	if matches == 0 {
		t.Fatal("no matches replayed")
	}
}

// Clones share the parent's table: a clone enumerating the nodes the
// parent already recorded hits on every one and reproduces the lists.
func TestMemoCloneSharesTable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	parent := memoMatcher(t, pats, 0)
	rng := rand.New(rand.NewSource(9))
	g, _ := randomSubject(rng, 5, 60)
	want := matchSet(parent, g, Standard)

	clone := parent.Clone()
	if clone.Memo() != parent.Memo() {
		t.Fatal("clone did not share the memo table")
	}
	if clone.MemoHits() != 0 || clone.MemoMisses() != 0 {
		t.Fatal("clone inherited per-matcher memo counters")
	}
	got := matchSet(clone, g, Standard)
	if !equalSets(want, got) {
		t.Fatal("clone's memoized enumeration differs from parent's")
	}
	if clone.MemoMisses() != 0 {
		t.Errorf("clone missed %d times on a table the parent warmed", clone.MemoMisses())
	}
	if clone.MemoHits() == 0 {
		t.Error("clone reported no hits")
	}
}

// The table respects its bound: a tiny table under a big graph evicts
// instead of growing, and enumeration stays correct throughout.
func TestMemoEvictionBound(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	const bound = memoShards // one entry per shard
	m := memoMatcher(t, pats, bound)
	plain := NewMatcher(pats)
	rng := rand.New(rand.NewSource(77))
	g, _ := randomSubject(rng, 8, 400)
	want := matchSet(plain, g, Standard)
	got := matchSet(m, g, Standard)
	if !equalSets(want, got) {
		t.Fatal("enumeration under eviction pressure differs")
	}
	st := m.Memo().Stats()
	if st.Entries > bound {
		t.Errorf("table holds %d entries, bound %d", st.Entries, bound)
	}
	if st.Evictions == 0 {
		t.Error("expected evictions under a one-entry-per-shard bound")
	}
}

// Reset clears the matcher's run state but keeps the shared table —
// the pooled-mapper contract: a request's matcher goes back to the
// pool holding no graph references, while the library's table stays
// warm for the next request.
func TestMemoResetKeepsTable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	m := memoMatcher(t, pats, 0)
	rng := rand.New(rand.NewSource(13))
	g, _ := randomSubject(rng, 4, 40)
	matchSet(m, g, Standard)
	entries := m.Memo().Stats().Entries
	if entries == 0 {
		t.Fatal("nothing recorded before Reset")
	}
	m.Reset()
	if !m.MemoEnabled() {
		t.Fatal("Reset disabled the memo")
	}
	if m.MemoHits() != 0 || m.MemoMisses() != 0 {
		t.Fatal("Reset kept per-run memo counters")
	}
	if got := m.Memo().Stats().Entries; got != entries {
		t.Fatalf("Reset changed the table: %d entries, want %d", got, entries)
	}
	// A fresh identical graph must now hit without recording anything new.
	rng2 := rand.New(rand.NewSource(13))
	g2, _ := randomSubject(rng2, 4, 40)
	matchSet(m, g2, Standard)
	if m.MemoMisses() != 0 {
		t.Errorf("identical rebuilt graph missed %d times", m.MemoMisses())
	}
	if got := m.Memo().Stats().Entries; got != entries {
		t.Errorf("rebuilt graph grew the table: %d entries, want %d", got, entries)
	}
}

// SetMemoEnabled(false) bypasses the table without clearing it.
func TestMemoDisable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	m := memoMatcher(t, pats, 0)
	rng := rand.New(rand.NewSource(5))
	g, _ := randomSubject(rng, 4, 30)
	want := matchSet(m, g, Standard)
	entries := m.Memo().Stats().Entries
	hits, misses := m.MemoHits(), m.MemoMisses()

	m.SetMemoEnabled(false)
	if m.MemoEnabled() {
		t.Fatal("memo still enabled")
	}
	got := matchSet(m, g, Standard)
	if !equalSets(want, got) {
		t.Fatal("memo-off enumeration differs")
	}
	if m.MemoHits() != hits || m.MemoMisses() != misses {
		t.Error("disabled memo still counted consultations")
	}
	if m.Memo().Stats().Entries != entries {
		t.Error("disabled memo changed the table")
	}
	m.SetMemoEnabled(true)
	if !m.MemoEnabled() {
		t.Fatal("re-enable failed")
	}
}

// An early-stopped enumeration (yield returning false) must not be
// recorded: the table may only hold complete sequences.
func TestMemoPartialEnumerationNotRecorded(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	m := memoMatcher(t, pats, 0)
	g := subject.NewGraph("t", true)
	a, _ := g.AddPI("a")
	b, _ := g.AddPI("b")
	c, _ := g.AddPI("c")
	root := g.Nand(g.Nand(a, b), g.Not(c))
	plain := NewMatcher(pats)
	full := len(plain.AllMatches(g, root, Standard))
	if full < 2 {
		t.Skipf("need a root with >= 2 matches, got %d", full)
	}
	stopped := 0
	m.Enumerate(g, root, Standard, func(*Match) bool {
		stopped++
		return false // stop after the first match
	})
	if stopped != 1 {
		t.Fatalf("early stop yielded %d matches", stopped)
	}
	if got := m.Memo().Stats().Entries; got != 0 {
		t.Fatalf("partial enumeration was recorded (%d entries)", got)
	}
	// The next full enumeration must record and still be complete.
	if got := len(m.AllMatches(g, root, Standard)); got != full {
		t.Fatalf("post-stop enumeration found %d matches, want %d", got, full)
	}
	if got := m.Memo().Stats().Entries; got == 0 {
		t.Fatal("complete enumeration was not recorded")
	}
}
