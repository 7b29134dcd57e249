package blif

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dagcover/internal/logic"
	"dagcover/internal/subject"
)

// TestFoldCoverMatchesExprPath is the differential test of the
// streaming .names path: folding a cover in the cube domain and
// decomposing it with subject.BuildSOP must issue the same Nand/Not
// calls as the reference path coverToExpr -> logic.Substitute -> logic.Fold
// -> Build. Both run on twin graphs that start identical; after every
// declaration the result node IDs, node counts and strash hits must
// agree. Each declaration becomes a signal later ones may read, so
// strash hits across declarations are exercised too.
func TestFoldCoverMatchesExprPath(t *testing.T) {
	seen := map[string]int{}
	for _, chain := range []bool{false, true} {
		rng := rand.New(rand.NewSource(73))
		for trial := 0; trial < 400; trial++ {
			compareFoldTrial(t, rng, chain, seen)
			if t.Failed() {
				return
			}
		}
		if chain {
			seen["chain decomposition"]++
		} else {
			seen["balanced decomposition"]++
		}
	}
	for _, c := range []string{
		"constant-0 fanin", "constant-1 fanin", "off-phase cover", "don't-care column",
		"all-don't-care row", "zero rows", "zero inputs", "repeated fanin",
		"single-literal cube", "folds to constant", "several cubes",
		"chain decomposition", "balanced decomposition",
	} {
		if seen[c] == 0 {
			t.Errorf("the random covers never exercised case %q", c)
		}
	}
}

func compareFoldTrial(t *testing.T, rng *rand.Rand, chain bool, seen map[string]int) {
	t.Helper()
	ref, got := subject.NewGraph("ref", true), subject.NewGraph("got", true)
	ref.SetChainDecomposition(chain)
	got.SetChainDecomposition(chain)
	sigs := map[string]signal{"k0": constSignal(false), "k1": constSignal(true)}
	pool := []string{"k0", "k1"}
	for i := 0; i < 1+rng.Intn(5); i++ {
		name := fmt.Sprintf("x%d", i)
		a, err := ref.AddPI(name)
		if err != nil {
			t.Fatal(err)
		}
		if b, _ := got.AddPI(name); b != a {
			t.Fatalf("twin graphs diverge on PI %s", name)
		}
		sigs[name] = signal{node: a}
		pool = append(pool, name)
	}
	st := &streamer{g: got}
	for d := 0; d < 8; d++ {
		width := rng.Intn(6)
		fanins := make([]string, width)
		resolved := make([]signal, width)
		for j := range fanins {
			fanins[j] = pool[rng.Intn(len(pool))]
			resolved[j] = sigs[fanins[j]]
		}
		rows := randomRows(rng, width)
		st.cov.reset(width)
		for _, r := range rows {
			st.cov.add([]byte(r))
		}
		if st.cov.err != nil {
			t.Fatalf("generated an invalid cover %q: %v", rows, st.cov.err)
		}
		noteCases(seen, fanins, resolved, rows, st.cov.on)
		st.fanins = resolved
		sig := st.foldCover()

		fn, err := coverToExpr(fanins, rows)
		if err != nil {
			t.Fatal(err)
		}
		env := map[string]subject.Node{}
		for _, in := range fanins {
			if s := sigs[in]; s.konst() {
				fn = logic.Substitute(fn, in, logic.Constant(s.val()))
			} else {
				env[in] = s.node
			}
		}
		fn = logic.Fold(fn)
		desc := fmt.Sprintf("chain=%v fanins=%v rows=%q", chain, fanins, rows)
		if fn.Op == logic.OpConst {
			seen["folds to constant"]++
			if !sig.konst() || sig.val() != fn.Const {
				t.Fatalf("%s: reference folds to %v, cube path gives %+v", desc, fn.Const, sig)
			}
		} else {
			want, err := ref.Build(fn, env)
			if err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
			if sig.konst() || sig.node != want {
				t.Fatalf("%s: reference builds node %d, cube path gives %+v", desc, want, sig)
			}
		}
		if ref.NumNodes() != got.NumNodes() || ref.StrashHits() != got.StrashHits() {
			t.Fatalf("%s: reference has %d nodes / %d strash hits, cube path %d / %d",
				desc, ref.NumNodes(), ref.StrashHits(), got.NumNodes(), got.StrashHits())
		}
		name := fmt.Sprintf("n%d", d)
		sigs[name] = sig
		pool = append(pool, name)
	}
}

// randomRows draws a valid cover over width inputs: up to five rows
// of one output phase, columns biased toward literals.
func randomRows(rng *rand.Rand, width int) []string {
	if width == 0 {
		return [][]string{nil, {"1"}, {"0"}}[rng.Intn(3)]
	}
	out := "1"
	if rng.Intn(3) == 0 {
		out = "0"
	}
	rows := make([]string, rng.Intn(6))
	for i := range rows {
		var b strings.Builder
		for j := 0; j < width; j++ {
			b.WriteByte("01-1-0"[rng.Intn(6)])
		}
		rows[i] = b.String() + " " + out
	}
	return rows
}

// noteCases tallies which of the interesting cover shapes a declaration
// exercises.
func noteCases(seen map[string]int, fanins []string, resolved []signal, rows []string, on bool) {
	if len(fanins) == 0 {
		seen["zero inputs"]++
		return
	}
	if len(rows) == 0 {
		seen["zero rows"]++
	}
	if len(rows) > 1 {
		seen["several cubes"]++
	}
	if !on {
		seen["off-phase cover"]++
	}
	names := map[string]bool{}
	for j, in := range fanins {
		if names[in] {
			seen["repeated fanin"]++
		}
		names[in] = true
		switch {
		case resolved[j].konst() && resolved[j].val():
			seen["constant-1 fanin"]++
		case resolved[j].konst():
			seen["constant-0 fanin"]++
		}
	}
	for _, r := range rows {
		in := r[:len(fanins)]
		if strings.Contains(in, "-") {
			seen["don't-care column"]++
		}
		switch strings.Count(in, "-") {
		case len(in):
			seen["all-don't-care row"]++
		case len(in) - 1:
			seen["single-literal cube"]++
		}
	}
}
