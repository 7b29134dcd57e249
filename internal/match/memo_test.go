package match

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/network"
	"dagcover/internal/subject"
	"dagcover/internal/supergate"
)

// memoMatcher builds a memo-on matcher over lib's shared patterns.
func memoMatcher(t *testing.T, pats []*subject.Pattern, opts ...Option) *Matcher {
	t.Helper()
	m := NewMatcher(pats, opts...)
	if m.MemoEnabled() || m.MemoEntries() != 0 {
		t.Fatal("NewMatcher built a memo-on matcher")
	}
	m.SetMemoEnabled(true)
	if !m.MemoEnabled() {
		t.Fatal("SetMemoEnabled(true) did not enable the memo")
	}
	return m
}

// Property: memoization is invisible. For every node and class, the
// memoized matcher yields exactly the memo-less matcher's sequence —
// same matches, same order — and counts exactly the same pattern
// plans, on the cold pass (recording) and the warm pass (replaying).
// The small graphs share one matcher, so their warm passes hit; the
// last graph is large and random enough that, on a fresh matcher, some
// bucket's misses outrun its hits and its admission gate closes, so
// gated roots are checked against the plain walk too.
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
			check := func(memo *Matcher, trial int, g *subject.Graph) {
				t.Helper()
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
			memo := memoMatcher(t, lib.pats)
			rng := rand.New(rand.NewSource(23))
			for trial := 0; trial < 6; trial++ {
				g, _ := randomSubject(rng, 4+rng.Intn(4), 30+rng.Intn(50))
				check(memo, trial, g)
			}
			if memo.MemoHits() == 0 {
				t.Fatal("warm passes produced no memo hits")
			}

			big := memoMatcher(t, lib.pats)
			g, _ := randomSubject(rng, 24, 3000)
			check(big, 6, g)
			if closedGates(big) == 0 {
				t.Fatal("no bucket's admission gate closed on the large graph")
			}
		})
	}
}

// closedGates counts m's signature buckets whose admission gate has
// closed in the current call.
func closedGates(m *Matcher) int {
	n := 0
	for i := range m.gate {
		if m.gate[i].closed() {
			n++
		}
	}
	return n
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

// memoKeyDepths returns the depth byte of every key in m's table.
func memoKeyDepths(m *Matcher) map[int]int {
	depths := make(map[int]int)
	for k := range m.memo {
		depths[int(k[1])]++
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

	off := memoMatcher(t, pats, WithoutSignatureIndex())
	matchSet(off, g, Standard)
	depths := memoKeyDepths(off)
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

	on := memoMatcher(t, pats)
	matchSet(on, g, Standard)
	shallow := 0
	for d, n := range memoKeyDepths(on) {
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
	m := memoMatcher(t, pats)
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
	m := memoMatcher(t, pats)
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

// A clone owns its own table: it keeps the memo setting but starts
// empty, so it records exactly what a fresh memo-on matcher records,
// and its recordings never reach the parent's table.
func TestMemoCloneOwnsTable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	parent := memoMatcher(t, pats)
	rng := rand.New(rand.NewSource(9))
	g, _ := randomSubject(rng, 5, 60)
	want := matchSet(parent, g, Standard)
	coldHits, coldMisses, entries := parent.MemoHits(), parent.MemoMisses(), parent.MemoEntries()
	if entries == 0 {
		t.Fatal("parent recorded nothing")
	}

	clone := parent.Clone()
	if !clone.MemoEnabled() {
		t.Fatal("clone lost the memo setting")
	}
	if clone.MemoEntries() != 0 {
		t.Fatalf("clone started with %d entries, want an empty table", clone.MemoEntries())
	}
	if clone.MemoHits() != 0 || clone.MemoMisses() != 0 {
		t.Fatal("clone inherited per-matcher memo counters")
	}
	got := matchSet(clone, g, Standard)
	if !equalSets(want, got) {
		t.Fatal("clone's memoized enumeration differs from parent's")
	}
	if clone.MemoHits() != coldHits || clone.MemoMisses() != coldMisses || clone.MemoEntries() != entries {
		t.Errorf("clone counted %d hits, %d misses, %d entries; the parent's cold pass %d, %d, %d",
			clone.MemoHits(), clone.MemoMisses(), clone.MemoEntries(), coldHits, coldMisses, entries)
	}
	if parent.MemoEntries() != entries || parent.MemoHits() != coldHits {
		t.Error("the clone's enumeration touched the parent's table")
	}
}

// fillMemo fills m's table to the cap with keys no cone encodes (a real
// key starts with a class/index tag below 0xff), so no root can hit them.
func fillMemo(m *Matcher) {
	m.memo = make(map[string]memoEntry, maxMemoEntries)
	for i := 0; i < maxMemoEntries; i++ {
		m.memo[fmt.Sprintf("\xff%d", i)] = memoEntry{}
	}
}

// A full table stops recording: misses still walk and count, nothing is
// evicted or added, and the enumeration stays identical to the plain
// walk. Reset empties the table, and recording resumes.
func TestMemoCapStopsRecording(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	plain := NewMatcher(pats)
	rng := rand.New(rand.NewSource(77))
	g, _ := randomSubject(rng, 8, 400)
	want := matchSet(plain, g, Standard)

	m := memoMatcher(t, pats)
	fillMemo(m)
	got := matchSet(m, g, Standard)
	if !equalSets(want, got) {
		t.Fatal("enumeration with a full table differs from the plain walk")
	}
	if m.MemoEntries() != maxMemoEntries {
		t.Errorf("full table holds %d entries, want the cap %d", m.MemoEntries(), maxMemoEntries)
	}
	if m.MemoHits() != 0 || m.MemoMisses() == 0 {
		t.Errorf("full table: %d hits, %d misses; want only misses", m.MemoHits(), m.MemoMisses())
	}
	if m.PatternsTried() != plain.PatternsTried() {
		t.Errorf("plans tried: plain %d, full-table memo %d", plain.PatternsTried(), m.PatternsTried())
	}

	m.Reset()
	if !equalSets(want, matchSet(m, g, Standard)) {
		t.Fatal("enumeration after Reset differs from the plain walk")
	}
	if n := m.MemoEntries(); n == 0 || n >= maxMemoEntries {
		t.Errorf("after Reset the table holds %d entries, want a fresh recording", n)
	}
}

// Reset empties the table: the pooled-mapper contract that scopes the
// memo to one Map call. A reset matcher keeps the memo on and repeats
// a cold run's counts exactly instead of hitting the earlier recording.
func TestMemoResetClearsTable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	m := memoMatcher(t, pats)
	rng := rand.New(rand.NewSource(13))
	g, _ := randomSubject(rng, 4, 40)
	want := matchSet(m, g, Standard)
	hits, misses, entries := m.MemoHits(), m.MemoMisses(), m.MemoEntries()
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
	if got := m.MemoEntries(); got != 0 {
		t.Fatalf("Reset kept %d table entries", got)
	}
	if got := matchSet(m, g, Standard); !equalSets(want, got) {
		t.Fatal("enumeration after Reset differs")
	}
	if m.MemoHits() != hits || m.MemoMisses() != misses || m.MemoEntries() != entries {
		t.Errorf("rerun after Reset counted %d hits, %d misses, %d entries; cold run %d, %d, %d",
			m.MemoHits(), m.MemoMisses(), m.MemoEntries(), hits, misses, entries)
	}
}

// SetMemoEnabled(false) bypasses the table without clearing it.
func TestMemoDisable(t *testing.T) {
	pats := compile(t, libgen.Lib441(), true)
	m := memoMatcher(t, pats)
	rng := rand.New(rand.NewSource(5))
	g, _ := randomSubject(rng, 4, 30)
	want := matchSet(m, g, Standard)
	entries := m.MemoEntries()
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
	if m.MemoEntries() != entries {
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
	m := memoMatcher(t, pats)
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
	if got := m.MemoEntries(); got != 0 {
		t.Fatalf("partial enumeration was recorded (%d entries)", got)
	}
	// The next full enumeration must record and still be complete.
	if got := len(m.AllMatches(g, root, Standard)); got != full {
		t.Fatalf("post-stop enumeration found %d matches, want %d", got, full)
	}
	if got := m.MemoEntries(); got == 0 {
		t.Fatal("complete enumeration was not recorded")
	}
}

var updateMemoCounters = flag.Bool("update-memo-counters", false, "rewrite testdata/memo_counters.txt from this run")

// memoCounts is one pinned input's memo traffic: one memo-on Standard
// enumeration at every node of a fresh matcher, in node order.
// coneNodes and keyBytes total the cone keys computed on the way (see
// subject.ConeEncoder.Work).
type memoCounts struct {
	lookups, hits, entries int
	coneNodes, keyBytes    int64
}

// streamSubject streams a generated family (bench.StreamFamily) into
// its subject graph, as techmap and stream-scale read it.
func streamSubject(t testing.TB, family string) *subject.Graph {
	t.Helper()
	gen, ok := bench.StreamFamily(family)
	if !ok {
		t.Fatalf("unknown stream family %q", family)
	}
	var buf bytes.Buffer
	if err := gen(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := (&blif.Reader{}).StreamSubject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestMemoCounters is the noise-free gate on the memo's admission and
// on its key work: memo-on lookups, hits and entries, and the cone
// nodes visited and key bytes written computing those lookups' keys,
// on fixed inputs are pinned in testdata/memo_counters.txt. On the
// structured inputs, where the memo pays, hits must never fall; on the
// random DAG, where it cannot, lookups must never rise; on every input
// cone nodes and key bytes must never rise, so keys cannot silently
// widen. Any other change is logged; rewrite the file with
// -update-memo-counters to lock it in.
func TestMemoCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("maps C6288, mult28 and a 2900-gate random DAG")
	}
	libs := map[string][]*subject.Pattern{
		"lib2": compile(t, libgen.Lib2(), true),
		"44-1": compile(t, libgen.Lib441(), true),
		"44-3": compile(t, libgen.Lib443(), true),
	}
	fromNetwork := func(nw *network.Network) *subject.Graph {
		g, err := subject.FromNetwork(nw)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	inputs := []struct {
		circuit string
		g       *subject.Graph
		libs    []string
		random  bool
	}{
		{"C432", fromNetwork(bench.C432()), []string{"lib2", "44-1", "44-3"}, false},
		{"C6288", fromNetwork(bench.C6288()), []string{"lib2", "44-1", "44-3"}, false},
		{"RandomDAG(32,2900,11)", fromNetwork(bench.RandomDAG(32, 2900, 11)), []string{"44-3"}, true},
		{"mult28", streamSubject(t, "mult28"), []string{"44-1", "44-3"}, false},
	}
	path := filepath.Join("testdata", "memo_counters.txt")
	var want map[string]memoCounts
	if !*updateMemoCounters {
		want = readMemoCounters(t, path)
	}
	var lines []string
	for _, in := range inputs {
		for _, lib := range in.libs {
			key := in.circuit + " " + lib
			m := memoMatcher(t, libs[lib])
			for i := 0; i < in.g.NumNodes(); i++ {
				m.Enumerate(in.g, subject.Node(i), Standard, func(*Match) bool { return true })
			}
			got := memoCounts{lookups: m.MemoHits() + m.MemoMisses(), hits: m.MemoHits(), entries: m.MemoEntries()}
			got.coneNodes, got.keyBytes = m.cone.Work()
			lines = append(lines, fmt.Sprintf("%s %d %d %d %d %d", key, got.lookups, got.hits, got.entries, got.coneNodes, got.keyBytes))
			if *updateMemoCounters {
				continue
			}
			w, ok := want[key]
			switch {
			case !ok:
				t.Errorf("%s: no pinned counters in %s", key, path)
			case in.random && got.lookups > w.lookups:
				t.Errorf("%s: memo lookups rose %d→%d on a circuit the memo cannot serve", key, w.lookups, got.lookups)
			case !in.random && got.hits < w.hits:
				t.Errorf("%s: memo hits fell %d→%d on a circuit the memo serves", key, w.hits, got.hits)
			case got.coneNodes > w.coneNodes || got.keyBytes > w.keyBytes:
				t.Errorf("%s: cone-key work rose: cone nodes %d→%d, key bytes %d→%d", key, w.coneNodes, got.coneNodes, w.keyBytes, got.keyBytes)
			case got != w:
				t.Logf("%s: memo counters moved: lookups %d→%d, hits %d→%d, entries %d→%d, cone nodes %d→%d, key bytes %d→%d; rewrite %s with -update-memo-counters",
					key, w.lookups, got.lookups, w.hits, got.hits, w.entries, got.entries, w.coneNodes, got.coneNodes, w.keyBytes, got.keyBytes, path)
			}
		}
	}
	if *updateMemoCounters {
		body := "# circuit library lookups hits entries cone_nodes key_bytes\n" +
			"# one memo-on Standard enumeration at every subject node of a fresh matcher (TestMemoCounters)\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readMemoCounters(t *testing.T, path string) map[string]memoCounts {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]memoCounts{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var circuit, lib string
		var c memoCounts
		if _, err := fmt.Sscan(line, &circuit, &lib, &c.lookups, &c.hits, &c.entries, &c.coneNodes, &c.keyBytes); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out[circuit+" "+lib] = c
	}
	return out
}

// BenchmarkConeEncode computes the cone key of every gate of
// alumesh14x14 at its 44-3 signature bucket's key depth, as the memo
// does before each lookup (Standard class: no fanout words). Besides
// the map probe and the replay, the key is all a memo hit costs; it
// must not allocate.
func BenchmarkConeEncode(b *testing.B) {
	g := streamSubject(b, "alumesh14x14")
	m := NewMatcher(compile(b, libgen.Lib443(), true))
	var roots []subject.Node
	var depths []int
	for i := 0; i < g.NumNodes(); i++ {
		n := subject.Node(i)
		if g.KindOf(n) == subject.PI {
			continue
		}
		if _, depth := m.memoKeyDepth(g, n); depth <= maxMemoDepth {
			roots = append(roots, n)
			depths = append(depths, depth)
		}
	}
	tag := memoKeyTag(Standard, m.index)
	e := subject.NewConeEncoder()
	for i, n := range roots {
		e.Encode(g, n, depths[i], false, tag)
	}
	nodes, keyBytes := e.Work()
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for i, n := range roots {
			e.Encode(g, n, depths[i], false, tag)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(roots)), "ns/root")
	b.ReportMetric(float64(nodes)/float64(len(roots)), "nodes/root")
	b.ReportMetric(float64(keyBytes)/float64(len(roots)), "keybytes/root")
}
