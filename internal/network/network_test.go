package network

import (
	"math/rand"
	"strings"
	"testing"

	"dagcover/internal/logic"
)

// buildSmall returns the network f = (a AND b) OR c, g = NOT f.
func buildSmall(t *testing.T) *Network {
	t.Helper()
	nw := New("small")
	for _, in := range []string{"a", "b", "c"} {
		if _, err := nw.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nw.AddNode("f", []string{"a", "b", "c"}, logic.MustParse("a*b+c")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("g", []string{"f"}, logic.MustParse("!f")); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput("g"); err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestBuildAndCheck(t *testing.T) {
	nw := buildSmall(t)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	if got := nw.NumGates(); got != 2 {
		t.Errorf("NumGates = %d, want 2", got)
	}
	s, err := nw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if s.Inputs != 3 || s.Outputs != 1 || s.Depth != 2 {
		t.Errorf("stats = %v", s)
	}
}

func TestAddErrors(t *testing.T) {
	nw := New("err")
	if _, err := nw.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddInput("a"); err == nil {
		t.Error("duplicate input accepted")
	}
	if _, err := nw.AddNode("n", []string{"zz"}, logic.MustParse("zz")); err == nil {
		t.Error("unknown fanin accepted")
	}
	if _, err := nw.AddNode("n", []string{"a"}, logic.MustParse("a*b")); err == nil {
		t.Error("function over non-fanin accepted")
	}
	if _, err := nw.AddNode("n", []string{"a", "a"}, logic.MustParse("a")); err == nil {
		t.Error("duplicate fanin accepted")
	}
	if _, err := nw.AddNode("a", []string{"a"}, logic.MustParse("a")); err == nil {
		t.Error("name collision with input accepted")
	}
	if err := nw.MarkOutput("nope"); err == nil {
		t.Error("unknown output accepted")
	}
}

// TestAddNodeErrorTexts pins AddNode's fanin error texts and the order
// of its checks: fanins left to right (unknown before repeated), then
// the function's variables in sorted order.
func TestAddNodeErrorTexts(t *testing.T) {
	nw := New("err")
	for _, in := range []string{"a", "b"} {
		if _, err := nw.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		fanins []string
		fn     string
		want   string
	}{
		{[]string{"a", "a", "zz"}, "a", `network: node "n" lists fanin "a" twice`},
		{[]string{"zz", "a", "a"}, "a", `network: node "n" references unknown fanin "zz"`},
		{[]string{"b", "a", "b"}, "c*d", `network: node "n" lists fanin "b" twice`},
		{[]string{"b"}, "d*c*b", `network: node "n" function uses "c" which is not a fanin`},
	} {
		_, err := nw.AddNode("n", tc.fanins, logic.MustParse(tc.fn))
		if err == nil || err.Error() != tc.want {
			t.Errorf("AddNode(%v, %s) = %v, want %q", tc.fanins, tc.fn, err, tc.want)
		}
	}
	n, err := nw.AddNode("n", []string{"a"}, logic.MustParse("a"))
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput("n"); err != nil {
		t.Fatal(err)
	}
	n.Func = logic.MustParse("a*c*b")
	want := `network: node "n" function uses non-fanin "b"`
	if err := nw.Check(); err == nil || err.Error() != want {
		t.Errorf("Check = %v, want %q", err, want)
	}
}

func TestTopoSortProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		nw := randomNetwork(t, rng, 4, 40)
		topo, err := nw.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		pos := map[*Node]int{}
		for i, n := range topo {
			pos[n] = i
		}
		if len(topo) != nw.NumNodes() {
			t.Fatalf("topo has %d nodes, network has %d", len(topo), nw.NumNodes())
		}
		for _, n := range topo {
			for _, fi := range n.Fanins {
				if pos[fi] >= pos[n] {
					t.Fatalf("fanin %q not before %q in topo order", fi.Name, n.Name)
				}
			}
		}
	}
}

// randomNetwork builds a random DAG with the given inputs and gates.
func randomNetwork(t *testing.T, rng *rand.Rand, nIn, nGates int) *Network {
	t.Helper()
	nw := New("rand")
	var names []string
	for i := 0; i < nIn; i++ {
		name := "i" + string(rune('0'+i))
		if _, err := nw.AddInput(name); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	for g := 0; g < nGates; g++ {
		name := "g" + itoa(g)
		k := 1 + rng.Intn(3)
		if k > len(names) {
			k = len(names)
		}
		seen := map[string]bool{}
		var fanins []string
		for len(fanins) < k {
			f := names[rng.Intn(len(names))]
			if !seen[f] {
				seen[f] = true
				fanins = append(fanins, f)
			}
		}
		kids := make([]*logic.Expr, len(fanins))
		for i, f := range fanins {
			kids[i] = logic.Variable(f)
		}
		var fn *logic.Expr
		switch rng.Intn(3) {
		case 0:
			fn = logic.Not(logic.And(kids...))
		case 1:
			fn = logic.Or(kids...)
		default:
			fn = logic.Xor(kids...)
		}
		if _, err := nw.AddNode(name, fanins, fn); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
	}
	if err := nw.MarkOutput(names[len(names)-1]); err != nil {
		t.Fatal(err)
	}
	return nw
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b []byte
	for v > 0 {
		b = append([]byte{byte('0' + v%10)}, b...)
		v /= 10
	}
	return string(b)
}

func TestCycleDetection(t *testing.T) {
	nw := New("cyc")
	if _, err := nw.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	n1, err := nw.AddNode("x", []string{"a"}, logic.MustParse("!a"))
	if err != nil {
		t.Fatal(err)
	}
	n2, err := nw.AddNode("y", []string{"x"}, logic.MustParse("!x"))
	if err != nil {
		t.Fatal(err)
	}
	// Manually create a cycle x -> y -> x.
	n1.Fanins = append(n1.Fanins, n2)
	n2.Fanouts = append(n2.Fanouts, n1)
	if _, err := nw.TopoSort(); err == nil {
		t.Error("cycle not detected")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestLatchesBreakCycles(t *testing.T) {
	// A toggle flip-flop: q' = !q through a latch.
	nw := New("tff")
	if _, err := nw.AddLatch("nq", "q", false); err == nil {
		t.Error("latch with missing input accepted")
	}
	if _, err := nw.AddInput("en"); err != nil {
		t.Fatal(err)
	}
	// Create latch output first via a two-step pattern: placeholder.
	// Build: q (latch out), nq = q XOR en, latch(nq -> q).
	// AddLatch needs the input to exist, so create nq after q; use the
	// placeholder trick through a fresh network.
	nw2 := New("tff")
	if _, err := nw2.AddInput("en"); err != nil {
		t.Fatal(err)
	}
	// Stage pseudo input then logic then latch referencing both.
	if _, err := nw2.AddInput("q_tmp"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw2.AddNode("nq", []string{"q_tmp", "en"}, logic.MustParse("q_tmp^en")); err != nil {
		t.Fatal(err)
	}
	l, err := nw2.AddLatch("nq", "q", false)
	if err != nil {
		t.Fatal(err)
	}
	if l.Output.Name != "q" || l.Input.Name != "nq" {
		t.Errorf("latch endpoints wrong: %v -> %v", l.Input.Name, l.Output.Name)
	}
	if _, err := nw2.TopoSort(); err != nil {
		t.Errorf("latched network should be acyclic: %v", err)
	}
	if nw2.LatchFor(l.Output) != l {
		t.Error("LatchFor lookup failed")
	}
}

func TestSimulator(t *testing.T) {
	nw := buildSmall(t)
	sim, err := NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	// g = !(a*b+c). Try all 8 assignments packed into one word.
	in := map[string]uint64{
		"a": 0xAA, // 10101010
		"b": 0xCC, // 11001100
		"c": 0xF0, // 11110000
	}
	out, err := sim.RunOutputs(in)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		a := in["a"]>>uint(r)&1 == 1
		b := in["b"]>>uint(r)&1 == 1
		c := in["c"]>>uint(r)&1 == 1
		want := !(a && b || c)
		got := out["g"]>>uint(r)&1 == 1
		if got != want {
			t.Errorf("row %d: got %v want %v", r, got, want)
		}
	}
	if _, err := sim.Run(map[string]uint64{"a": 0}); err == nil {
		t.Error("missing input not reported")
	}
}

func TestSweep(t *testing.T) {
	nw := buildSmall(t)
	// Add a dangling node; sweep should remove it.
	if _, err := nw.AddNode("dead", []string{"a"}, logic.MustParse("!a")); err != nil {
		t.Fatal(err)
	}
	if removed := nw.Sweep(); removed != 1 {
		t.Errorf("Sweep removed %d, want 1", removed)
	}
	if nw.Node("dead") != nil {
		t.Error("dead node still present")
	}
	if err := nw.Check(); err != nil {
		t.Errorf("network invalid after sweep: %v", err)
	}
	// Fanout list of a must no longer contain dead.
	for _, fo := range nw.Node("a").Fanouts {
		if fo.Name == "dead" {
			t.Error("stale fanout after sweep")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	nw := buildSmall(t)
	c := nw.Clone()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if c.Node("f") == nw.Node("f") {
		t.Error("clone shares nodes with the original")
	}
	// Mutating the clone must not affect the original.
	if _, err := c.AddNode("extra", []string{"g"}, logic.MustParse("!g")); err != nil {
		t.Fatal(err)
	}
	if nw.Node("extra") != nil {
		t.Error("clone mutation leaked into original")
	}
	// Same functional behaviour.
	s1, _ := NewSimulator(nw)
	s2, _ := NewSimulator(c)
	in := map[string]uint64{"a": 0x1234, "b": 0xABCD, "c": 0x5678}
	o1, _ := s1.RunOutputs(in)
	o2, _ := s2.RunOutputs(in)
	if o1["g"] != o2["g"] {
		t.Error("clone computes a different function")
	}
}

func TestCloneWithLatches(t *testing.T) {
	nw := New("seq")
	if _, err := nw.AddInput("d"); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("n", []string{"d"}, logic.MustParse("!d")); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddLatch("n", "q", true); err != nil {
		t.Fatal(err)
	}
	if _, err := nw.AddNode("out", []string{"q"}, logic.MustParse("!q")); err != nil {
		t.Fatal(err)
	}
	if err := nw.MarkOutput("out"); err != nil {
		t.Fatal(err)
	}
	c := nw.Clone()
	if len(c.Latches()) != 1 {
		t.Fatalf("clone has %d latches, want 1", len(c.Latches()))
	}
	l := c.Latches()[0]
	if l.Input.Name != "n" || l.Output.Name != "q" || !l.Init {
		t.Errorf("clone latch corrupted: %+v", l)
	}
	if l.Input == nw.Latches()[0].Input {
		t.Error("clone latch shares nodes with original")
	}
}

func TestTransitiveFanin(t *testing.T) {
	nw := buildSmall(t)
	cone := TransitiveFanin(nw.Node("g"))
	if len(cone) != 5 {
		t.Errorf("TFI size = %d, want 5", len(cone))
	}
	cone = TransitiveFanin(nw.Node("a"))
	if len(cone) != 1 {
		t.Errorf("TFI of input size = %d, want 1", len(cone))
	}
}

func TestLevels(t *testing.T) {
	nw := buildSmall(t)
	lv, err := nw.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if lv[nw.Node("a")] != 0 || lv[nw.Node("f")] != 1 || lv[nw.Node("g")] != 2 {
		t.Errorf("levels wrong: a=%d f=%d g=%d", lv[nw.Node("a")], lv[nw.Node("f")], lv[nw.Node("g")])
	}
}
