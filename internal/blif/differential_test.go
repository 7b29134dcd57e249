package blif

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/cutmap"
	"dagcover/internal/flowmap"
	"dagcover/internal/logic"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// assertMatchesReference renders nw with Write and with the map-cube
// reference writer and fails unless the bytes and errors agree.
func assertMatchesReference(t *testing.T, name string, nw *network.Network) {
	t.Helper()
	var got, want bytes.Buffer
	gotErr := Write(&got, nw)
	wantErr := referenceWrite(&want, nw)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, gotErr, wantErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := strings.Split(got.String(), "\n"), strings.Split(want.String(), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Fatalf("%s: line %d is %q, reference %q", name, i+1, g[i], w[i])
			}
		}
		t.Fatalf("%s: %d lines, reference %d", name, len(g), len(w))
	}
}

// TestWriteMatchesReference holds Write byte for byte to the map-cube
// writer it replaced: random DAGs, the ISCAS suite, FlowMap and
// lut-area LUT networks, and synthetic nodes that reach every branch
// of the cube expansion.
func TestWriteMatchesReference(t *testing.T) {
	t.Run("random-dag", func(t *testing.T) {
		for _, nIn := range []int{8, 16, 24, 32} {
			for _, gates := range []int{50, 400, 3000} {
				nw := bench.RandomDAG(nIn, gates, int64(nIn*gates))
				assertMatchesReference(t, nw.Name, nw)
			}
		}
	})
	t.Run("iscas", func(t *testing.T) {
		for _, c := range bench.FullSuite() {
			assertMatchesReference(t, c.Name, c.Network)
		}
	})
	t.Run("lut", func(t *testing.T) {
		for _, c := range bench.FullSuite() {
			g, err := subject.FromNetwork(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{4, 6} {
				area, err := cutmap.Map(g, cutmap.Options{K: k, Mode: cutmap.ModeArea})
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, fmt.Sprintf("%s lut-area k%d", c.Name, k), area.Network)
				if c.Name == "C6288" {
					continue // FlowMap labeling on the multiplier takes seconds per k
				}
				fm, err := flowmap.Map(g, k)
				if err != nil {
					t.Fatal(err)
				}
				assertMatchesReference(t, fmt.Sprintf("%s flowmap k%d", c.Name, k), fm.Network)
			}
		}
	})
	t.Run("synthetic", func(t *testing.T) {
		for _, tc := range syntheticNodes() {
			nw := network.New("syn")
			for _, v := range tc.fanins {
				if nw.Node(v) == nil {
					if _, err := nw.AddInput(v); err != nil {
						t.Fatal(err)
					}
				}
			}
			if _, err := nw.AddNode("f", tc.fanins, tc.fn); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := nw.MarkOutput("f"); err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, tc.name, nw)
		}
	})
	t.Run("random-expr", func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for i := 0; i < 300; i++ {
			width := 1 + rng.Intn(8)
			if i%10 == 0 {
				width = 60 + rng.Intn(80) // across word boundaries
			}
			vars := vars("v", width)
			fn := randomExpr(rng, vars, 5)
			nw := network.New("rnd")
			for _, v := range vars {
				if _, err := nw.AddInput(v); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := nw.AddNode("f", vars, fn); err != nil {
				t.Fatal(err)
			}
			if err := nw.MarkOutput("f"); err != nil {
				t.Fatal(err)
			}
			assertMatchesReference(t, fmt.Sprintf("expr %d %s", i, fn), nw)
		}
	})
}

type syntheticNode struct {
	name   string
	fanins []string
	fn     *logic.Expr
}

// syntheticNodes are single nodes that drive the cube expansion down
// each of its paths.
func syntheticNodes() []syntheticNode {
	v := func(name string) *logic.Expr { return logic.Variable(name) }
	a, b := vars("a", 13), vars("b", 13)
	sums := func(n int) *logic.Expr {
		var terms []*logic.Expr
		for i := 0; i < n; i++ {
			terms = append(terms, logic.Or(v(a[i]), v(b[i])))
		}
		return logic.And(terms...)
	}
	pair := func(n int) []string { return append(append([]string(nil), a[:n]...), b[:n]...) }
	parity := func(names []string) *logic.Expr {
		var lits []*logic.Expr
		for _, n := range names {
			lits = append(lits, v(n))
		}
		return logic.Xor(lits...)
	}
	p := vars("p", 12)
	wide := vars("w", 130)
	var wideLits, wideSOP []*logic.Expr
	for i, n := range wide {
		lit := v(n)
		if i%3 == 0 {
			lit = logic.Not(lit)
		}
		wideLits = append(wideLits, lit)
		if i%7 == 0 && i+65 < len(wide) {
			wideSOP = append(wideSOP, logic.And(lit, v(wide[i+1]), logic.Not(v(wide[i+65]))))
		}
	}
	return []syntheticNode{
		// 4096 cubes: exactly at the limit, one cover.
		{"limit-exact", pair(12), sums(12)},
		// 8192 cubes on-set, 13 off-set: the complement fallback.
		{"complement", pair(13), sums(13)},
		// Both phases past the limit: split into intermediates.
		{"split-xor16", vars("x", 16), parity(vars("x", 16))},
		{"split-not-xor20", vars("x", 20), logic.Not(parity(vars("x", 20)))},
		// A 2048×2048 product of contradictory parities overdraws the
		// work budget; the complement fits.
		{"budget", p, logic.And(parity(p), logic.Not(parity(p)))},
		// Contradictions and repeated literals inside one cube.
		{"contradiction", []string{"c", "d", "e"}, logic.Or(logic.And(v("c"), logic.Not(v("c"))), logic.And(v("d"), v("d"), v("e")))},
		// Fanins the function does not read stay '-' columns.
		{"unused-fanins", []string{"u0", "u1", "u2", "u3"}, logic.And(v("u2"), logic.Not(v("u0")))},
		// More than 64 fanins: multi-word cubes.
		{"wide-and", wide, logic.And(wideLits...)},
		{"wide-or", wide, logic.Or(wideLits...)},
		{"wide-sop", wide, logic.Or(wideSOP...)},
		{"wide-xor", wide[60:70], parity(wide[60:70])},
		// Constants over fanins: all-'-' row, or no rows.
		{"const1-fanins", []string{"k0", "k1"}, logic.Constant(true)},
		{"const0-fanins", []string{"k0", "k1"}, logic.Constant(false)},
		// No fanins: ".names  f" with a " 1" row, or no rows.
		{"const1", nil, logic.Constant(true)},
		{"const0", nil, logic.Constant(false)},
	}
}

func vars(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// randomExpr builds a random expression over vars with up to depth
// levels of AND, OR, XOR and NOT above constants and literals.
func randomExpr(rng *rand.Rand, vars []string, depth int) *logic.Expr {
	if depth == 0 || rng.Intn(4) == 0 {
		if rng.Intn(20) == 0 {
			return logic.Constant(rng.Intn(2) == 0)
		}
		return logic.Variable(vars[rng.Intn(len(vars))])
	}
	kids := make([]*logic.Expr, 1+rng.Intn(4))
	for i := range kids {
		kids[i] = randomExpr(rng, vars, depth-1)
	}
	switch rng.Intn(7) {
	case 0, 1:
		return logic.And(kids...)
	case 2, 3:
		return logic.Or(kids...)
	case 4:
		return logic.Xor(kids[:min(len(kids), 2)]...)
	case 5:
		return logic.Not(kids[0])
	}
	// Unflattened operators, as a network built by hand may hold.
	return &logic.Expr{Op: logic.OpAnd, Kids: []*logic.Expr{kids[0], logic.Or(kids...)}}
}

// TestWriteRejectsForeignVariable: a function that reads a variable
// outside the node's fanins (Node.Func is exported, and Write does not
// run Check) is an error naming the node and the variable, on the
// one-cover path and on the split path.
func TestWriteRejectsForeignVariable(t *testing.T) {
	x := vars("x", 16)
	for _, tc := range []struct {
		name string
		fn   *logic.Expr
	}{
		{"cover", logic.And(logic.Variable("x0"), logic.Not(logic.Variable("ghost")))},
		{"split", logic.Xor(append([]*logic.Expr{logic.Variable("ghost")}, literals(x)...)...)},
	} {
		nw := network.New("foreign")
		for _, v := range append([]string{"ghost"}, x...) {
			if _, err := nw.AddInput(v); err != nil {
				t.Fatal(err)
			}
		}
		n, err := nw.AddNode("f", x, logic.Variable("x0"))
		if err != nil {
			t.Fatal(err)
		}
		if err := nw.MarkOutput("f"); err != nil {
			t.Fatal(err)
		}
		n.Func = tc.fn
		var buf bytes.Buffer
		err = Write(&buf, nw)
		want := `blif: node "f": function reads "ghost", which is not one of its fanins`
		if err == nil || err.Error() != want {
			t.Errorf("%s: Write error %v, want %q", tc.name, err, want)
		}
	}
}

func literals(names []string) []*logic.Expr {
	var out []*logic.Expr
	for _, n := range names {
		out = append(out, logic.Variable(n))
	}
	return out
}

// TestProductChargesBudgetFirst: a product whose pair count overdraws
// the work budget fails before it examines a pair, so it adds no cube
// to the arena; one within the budget is charged its full pair count.
func TestProductChargesBudgetFirst(t *testing.T) {
	var m dnfMemo
	m.inputs, m.words = vars("x", 3), 1
	m.toDNF(logic.Constant(false), cubeLimit)
	x0, x1 := m.literal("x0", true), m.literal("x1", true)
	grown := len(m.arena)
	m.budget = 0
	if l := m.product(x0, x1, cubeLimit); l.ok || len(m.arena) != grown {
		t.Fatalf("overdrawn product: ok=%v, arena grew by %d words", l.ok, len(m.arena)-grown)
	}
	m.budget = 5
	if l := m.product(x0, x1, cubeLimit); !l.ok || l.n != 1 || m.budget != 4 {
		t.Fatalf("product within budget: ok=%v n=%d budget left %d, want true 1 4", l.ok, l.n, m.budget)
	}
}
