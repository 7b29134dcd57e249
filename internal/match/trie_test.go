package match

import (
	"bufio"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/libgen"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// refWalker is the reference the trie is checked against: the plain
// per-pattern walk, one backtracking run of each candidate pattern's
// DFS-preorder plan, binding pattern nodes directly. It shares nothing
// with the trie but patternShapes and the subject signatures.
type refWalker struct {
	pats    []*subject.Pattern
	plans   [][]refStep
	index   bool
	choices *subject.Choices

	g         *subject.Graph
	class     Class
	root      subject.Node
	plan      []refStep
	pat       *subject.Pattern
	binding   []subject.Node
	usedBy    map[subject.Node]subject.Node
	stepSub   []subject.Node
	stepOrd   []int
	tried     int
	steps     int
	completes []string
}

type refStep struct {
	pn          subject.Node
	parent      int
	slot        int
	first, swap bool
	patFanouts  int
}

func newRefWalker(pats []*subject.Pattern, prune, index bool, choices *subject.Choices) *refWalker {
	r := &refWalker{pats: pats, index: index, choices: choices}
	for _, p := range pats {
		pg := p.Graph
		shapes := patternShapes(p)
		var steps []refStep
		visited := make([]bool, pg.NumNodes())
		var dfs func(pn subject.Node, parent, slot int)
		dfs = func(pn subject.Node, parent, slot int) {
			idx := len(steps)
			st := refStep{pn: pn, parent: parent, slot: slot, first: !visited[pn]}
			if pn != p.Root {
				st.patFanouts = pg.FanoutCount(pn)
			}
			if st.first && pg.KindOf(pn) == subject.Nand2 {
				st.swap = !prune || shapes[pg.Fanin0(pn)] != shapes[pg.Fanin1(pn)]
			}
			steps = append(steps, st)
			if !st.first {
				return
			}
			visited[pn] = true
			fis, k := pg.Fanins(pn)
			for i := 0; i < k; i++ {
				dfs(fis[i], idx, i)
			}
		}
		dfs(p.Root, -1, 0)
		r.plans = append(r.plans, steps)
	}
	return r
}

// enumerate returns every match at root as "pattern|leaves|covered"
// lines, pattern by pattern in library order.
func (r *refWalker) enumerate(g *subject.Graph, root subject.Node, class Class) []string {
	r.g, r.class, r.root, r.completes = g, class, root, nil
	if g.KindOf(root) == subject.PI {
		return nil
	}
	sig := -1
	if r.index && r.choices == nil {
		sig = subject.Signature(g, root)
	}
	for k, p := range r.pats {
		if p.Graph.KindOf(p.Root) != g.KindOf(root) {
			continue
		}
		if sig >= 0 && !slices.Contains(subject.PatternSignatures(p.Graph, p.Root), sig) {
			continue
		}
		r.tried++
		r.pat, r.plan = p, r.plans[k]
		r.binding = make([]subject.Node, p.Graph.NumNodes())
		r.usedBy = map[subject.Node]subject.Node{}
		r.stepSub = make([]subject.Node, len(r.plan))
		r.stepOrd = make([]int, len(r.plan))
		r.step(0)
	}
	return r.completes
}

func (r *refWalker) step(pi int) {
	if pi == len(r.plan) {
		r.complete()
		return
	}
	r.steps++
	st := r.plan[pi]
	g := r.g
	base := r.root
	if st.parent >= 0 {
		base = g.Fanin(r.stepSub[st.parent], st.slot^r.stepOrd[st.parent])
	}
	cands := []subject.Node{base}
	if st.parent >= 0 && r.choices.Members(base) != nil {
		cands = r.choices.Members(base)
	}
	kind := r.pat.Graph.KindOf(st.pn)
	for _, cand := range cands {
		if !st.first {
			if r.binding[st.pn] == cand {
				r.step(pi + 1)
			}
			continue
		}
		if kind != subject.PI {
			if kind != g.KindOf(cand) {
				continue
			}
			if r.class == Exact && st.parent >= 0 && (g.FanoutCount(cand) != st.patFanouts || g.DrivesOutput(cand)) {
				continue
			}
		}
		if r.class != Extended {
			if _, used := r.usedBy[cand]; used {
				continue
			}
			r.usedBy[cand] = st.pn
		}
		r.binding[st.pn] = cand
		r.stepSub[pi] = cand
		orders := 1
		if kind == subject.Nand2 && st.swap && g.Fanin0(cand) != g.Fanin1(cand) {
			orders = 2
		}
		for o := 0; o < orders; o++ {
			r.stepOrd[pi] = o
			r.step(pi + 1)
		}
		delete(r.usedBy, cand)
	}
}

func (r *refWalker) complete() {
	var leaves []subject.Node
	for _, leaf := range r.pat.PinLeaf {
		leaves = append(leaves, r.binding[leaf])
	}
	var covered []subject.Node
	for i := 0; i < r.pat.Graph.NumNodes(); i++ {
		if r.pat.Graph.KindOf(subject.Node(i)) != subject.PI && !slices.Contains(covered, r.binding[i]) {
			covered = append(covered, r.binding[i])
		}
	}
	r.completes = append(r.completes, fmt.Sprintf("%s|%v|%v", r.pat.Gate.Name, leaves, covered))
}

// trieMatches renders the trie matcher's matches at root the way the
// reference walk does.
func trieMatches(m *Matcher, g *subject.Graph, root subject.Node, class Class) []string {
	var out []string
	m.Enumerate(g, root, class, func(mt *Match) bool {
		out = append(out, fmt.Sprintf("%s|%v|%v", mt.Pattern.Gate.Name, mt.Leaves, mt.Covered))
		return true
	})
	return out
}

// randomChoices declares a few random same-kind node pairs of g as
// alternatives, so descents fan out over class members.
func randomChoices(rng *rand.Rand, g *subject.Graph) *subject.Choices {
	ch := subject.NewChoices()
	for i := 0; i < g.NumNodes()/8; i++ {
		a, b := subject.Node(rng.Intn(g.NumNodes())), subject.Node(rng.Intn(g.NumNodes()))
		if a != b && g.KindOf(a) == g.KindOf(b) {
			ch.Declare(a, b)
		}
	}
	return ch
}

// Property: the trie walk is the per-pattern walk, shared. At every
// node of random subject graphs, for every library, class, pruning
// and index setting, with and without choices, it yields exactly the
// reference walk's sequence — same patterns, bindings and order — and
// counts the same plans tried.
func TestTrieMatchesReferenceWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	type graph struct {
		g  *subject.Graph
		ch *subject.Choices
	}
	var graphs []graph
	for i := 0; i < 3; i++ {
		g, _ := randomSubject(rng, 4+rng.Intn(4), 40+rng.Intn(40))
		graphs = append(graphs, graph{g, nil}, graph{g, randomChoices(rng, g)})
	}
	c432, err := subject.FromNetwork(bench.C432())
	if err != nil {
		t.Fatal(err)
	}
	graphs = append(graphs, graph{c432, nil})
	for _, lib := range memoLibs(t) {
		for _, prune := range []bool{true, false} {
			for _, index := range []bool{true, false} {
				var opts []Option
				if !prune {
					opts = append(opts, WithoutSymmetryPruning())
				}
				if !index {
					opts = append(opts, WithoutSignatureIndex())
				}
				m := NewMatcher(lib.pats, opts...)
				for gi, gr := range graphs {
					m.SetChoices(gr.ch)
					ref := newRefWalker(lib.pats, prune, index, gr.ch)
					for _, class := range []Class{Exact, Standard, Extended} {
						tried0 := m.PatternsTried()
						ref.tried = 0
						for i := 0; i < gr.g.NumNodes(); i++ {
							n := subject.Node(i)
							want := ref.enumerate(gr.g, n, class)
							got := trieMatches(m, gr.g, n, class)
							if !slices.Equal(got, want) {
								t.Fatalf("%s prune=%v index=%v graph %d choices=%v class %v node %d:\ntrie:\n%s\nreference:\n%s",
									lib.name, prune, index, gi, gr.ch != nil, class, n,
									strings.Join(got, "\n"), strings.Join(want, "\n"))
							}
						}
						if tried := m.PatternsTried() - tried0; tried != ref.tried {
							t.Fatalf("%s prune=%v index=%v graph %d class %v: trie tried %d plans, reference %d",
								lib.name, prune, index, gi, class, tried, ref.tried)
						}
					}
				}
			}
		}
	}
}

// A memo-off enumeration on a warmed graph allocates nothing in any
// class: the walk, the completion buffer and the yielded Match all
// reuse the matcher's scratch.
func TestEnumerateAllocs(t *testing.T) {
	pats := compile(t, libgen.Lib443(), true)
	m := NewMatcher(pats)
	rng := rand.New(rand.NewSource(8))
	g, _ := randomSubject(rng, 6, 200)
	matches := 0
	yield := func(mt *Match) bool {
		matches += len(mt.Leaves)
		return true
	}
	for _, class := range []Class{Exact, Standard, Extended} {
		pass := func() {
			for i := 0; i < g.NumNodes(); i++ {
				m.Enumerate(g, subject.Node(i), class, yield)
			}
		}
		pass() // warm: grow the scratch to this graph and class
		if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
			t.Errorf("class %v: warm memo-off pass over %d nodes allocates %v times, want 0", class, g.NumNodes(), allocs)
		}
	}
	if matches == 0 {
		t.Fatal("no matches enumerated")
	}
}

var updateWorkCounters = flag.Bool("update-work-counters", false, "rewrite testdata/work_counters.txt from this run")

// workCounters is one pinned input's matcher work: one memo-off
// Standard enumeration at every node, signature index and pruning on.
type workCounters struct {
	tried, matches, steps int
}

func countWork(m *Matcher, g *subject.Graph) workCounters {
	var w workCounters
	tried0, steps0 := m.PatternsTried(), m.stepVisits
	for i := 0; i < g.NumNodes(); i++ {
		m.Enumerate(g, subject.Node(i), Standard, func(*Match) bool {
			w.matches++
			return true
		})
	}
	w.tried, w.steps = m.PatternsTried()-tried0, m.stepVisits-steps0
	return w
}

// TestMatchWorkCounters is the noise-free gate on matching work: the
// plans tried, matches enumerated and trie steps visited on fixed
// inputs are pinned in testdata/work_counters.txt, and any rise fails.
// A fall is logged; rewrite the file with -update-work-counters to
// lock it in. On the random DAG × 44-3, the fresh-circuit miss mapd
// serves most, the trie must also visit at most a third of the
// reference walk's steps.
func TestMatchWorkCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("maps C6288 and a 2900-gate random DAG")
	}
	libs := map[string][]*subject.Pattern{
		"lib2": compile(t, libgen.Lib2(), true),
		"44-1": compile(t, libgen.Lib441(), true),
		"44-3": compile(t, libgen.Lib443(), true),
	}
	inputs := []struct {
		circuit string
		nw      *network.Network
		libs    []string
		// thirdOfReference asserts the step bound against the
		// reference walk.
		thirdOfReference bool
	}{
		{"C432", bench.C432(), []string{"lib2", "44-1", "44-3"}, false},
		{"C6288", bench.C6288(), []string{"lib2", "44-1", "44-3"}, false},
		{"RandomDAG(32,2900,11)", bench.RandomDAG(32, 2900, 11), []string{"44-3"}, true},
	}
	path := filepath.Join("testdata", "work_counters.txt")
	want := readWorkCounters(t, path)
	var lines []string
	for _, in := range inputs {
		g, err := subject.FromNetwork(in.nw)
		if err != nil {
			t.Fatal(err)
		}
		for _, lib := range in.libs {
			key := in.circuit + " " + lib
			got := countWork(NewMatcher(libs[lib]), g)
			lines = append(lines, fmt.Sprintf("%s %d %d %d", key, got.tried, got.matches, got.steps))
			if in.thirdOfReference {
				ref := newRefWalker(libs[lib], true, true, nil)
				for i := 0; i < g.NumNodes(); i++ {
					ref.enumerate(g, subject.Node(i), Standard)
				}
				t.Logf("%s: trie %d steps, reference walk %d (%.2fx)", key, got.steps, ref.steps, float64(ref.steps)/float64(got.steps))
				if 3*got.steps > ref.steps {
					t.Errorf("%s: trie visits %d steps, more than a third of the reference walk's %d", key, got.steps, ref.steps)
				}
			}
			if *updateWorkCounters {
				continue
			}
			w, ok := want[key]
			switch {
			case !ok:
				t.Errorf("%s: no pinned counters in %s", key, path)
			case got.tried > w.tried || got.matches > w.matches || got.steps > w.steps:
				t.Errorf("%s: work rose: tried %d→%d, matches %d→%d, steps %d→%d",
					key, w.tried, got.tried, w.matches, got.matches, w.steps, got.steps)
			case got != w:
				t.Logf("%s: work fell: tried %d→%d, matches %d→%d, steps %d→%d; rewrite %s with -update-work-counters",
					key, w.tried, got.tried, w.matches, got.matches, w.steps, got.steps, path)
			}
		}
	}
	if *updateWorkCounters {
		body := "# circuit library patterns_tried matches_enumerated trie_steps\n" +
			"# one memo-off Standard enumeration at every subject node (TestMatchWorkCounters)\n" +
			strings.Join(lines, "\n") + "\n"
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func readWorkCounters(t *testing.T, path string) map[string]workCounters {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		if *updateWorkCounters {
			return nil
		}
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]workCounters{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var circuit, lib string
		var w workCounters
		if _, err := fmt.Sscan(line, &circuit, &lib, &w.tried, &w.matches, &w.steps); err != nil {
			t.Fatalf("%s: %q: %v", path, line, err)
		}
		out[circuit+" "+lib] = w
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
