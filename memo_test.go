package dagcover

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dagcover/internal/bench"
)

// renderBLIF maps nw with the given options and renders the netlist.
func renderBLIF(t *testing.T, nw *Network, opt MapOptions) []byte {
	t.Helper()
	res := mapNet(t, nw, opt)
	var buf bytes.Buffer
	if err := res.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The memo acceptance bar: for every ISCAS circuit, the mapped netlist
// with the memo on is byte-identical to the memo-off netlist at every
// labeling parallelism. One compiled library is reused across the
// whole suite, as the mapping service reuses it across requests; each
// run records into its own empty tables. The random DAG is where the
// memo's admission gates close: its runs must skip lookups at some
// roots, in DAG and in tree mode, and still match memo-off byte for
// byte.
func TestMemoOutputByteIdentical(t *testing.T) {
	random := []bench.Circuit{{Name: "RandomDAG(32,2900,11)", Network: bench.RandomDAG(32, 2900, 11)}}
	suites := []struct {
		lib      *Library
		delay    DelayModel
		circuits []bench.Circuit
		// gated suites must close a gate, and also run tree mode.
		gated bool
	}{
		{Lib441(), UnitDelay, bench.FullSuite(), false},
		{Lib443(), UnitDelay, []bench.Circuit{
			{Name: "C432", Network: bench.C432()},
			{Name: "C6288", Network: bench.C6288()},
		}, false},
		{Lib443(), UnitDelay, random, true},
		{Lib2(), UnitDelay, random, true},
	}
	if testing.Short() {
		suites[0].circuits = []bench.Circuit{
			{Name: "C432", Network: bench.C432()},
			{Name: "C6288", Network: bench.C6288()},
		}
	}
	for _, s := range suites {
		cl := compile(t, s.lib)
		hits := 0
		for _, c := range s.circuits {
			type run struct {
				mode Mode
				par  int
			}
			runs := []run{{ModeDAG, 1}, {ModeDAG, 4}, {ModeDAG, 8}}
			if s.gated {
				runs = append(runs, run{ModeTree, 1})
			}
			for _, r := range runs {
				ref := renderBLIF(t, c.Network, MapOptions{
					Library: cl, Delay: s.delay, Mode: r.mode, NoMemo: true,
				})
				res := mapNet(t, c.Network, MapOptions{
					Library: cl, Delay: s.delay, Mode: r.mode, Parallelism: r.par,
				})
				var got bytes.Buffer
				if err := res.Netlist.WriteBLIF(&got); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(ref, got.Bytes()) {
					t.Errorf("%s x %s: memo-on %v netlist at parallelism %d differs from memo-off",
						c.Name, s.lib.Name, r.mode, r.par)
				}
				roots := res.SubjectNodes - len(c.Network.Inputs())
				if s.gated && res.MemoHits+res.MemoMisses >= roots {
					t.Errorf("%s x %s: %v at parallelism %d made %d memo lookups over %d roots; no bucket's gate closed",
						c.Name, s.lib.Name, r.mode, r.par, res.MemoHits+res.MemoMisses, roots)
				}
				hits += res.MemoHits
			}
		}
		if hits == 0 {
			t.Errorf("%s: suite produced no memo hits — the equality check never exercised replay", s.lib.Name)
		}
	}
}

// Two serial runs of one circuit on one compiled library report the
// same memo counts: the second borrows the first's pooled matcher, so
// this fails if Reset left a table entry or a closed admission gate
// behind. The random DAG closes gates, so the run must make fewer
// lookups than it has roots.
func TestMemoCountsDeterministic(t *testing.T) {
	for _, lib := range []*Library{Lib443(), Lib2()} {
		cl := compile(t, lib)
		nw := bench.RandomDAG(32, 2900, 11)
		first := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, Parallelism: 1})
		roots := first.SubjectNodes - len(nw.Inputs())
		if lookups := first.MemoHits + first.MemoMisses; lookups == 0 || lookups >= roots {
			t.Errorf("%s: %d memo lookups over %d roots; want some, and fewer than the roots", lib.Name, lookups, roots)
		}
		for i := 0; i < 2; i++ {
			again := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, Parallelism: 1})
			if again.MemoHits != first.MemoHits || again.MemoMisses != first.MemoMisses || again.MemoEntries != first.MemoEntries {
				t.Errorf("%s: run %d reported %d hits, %d misses, %d entries; the first run %d, %d, %d", lib.Name, i+2,
					again.MemoHits, again.MemoMisses, again.MemoEntries, first.MemoHits, first.MemoMisses, first.MemoEntries)
			}
		}
	}
}

// deepChainLibrary returns 44-1 plus one two-input gate whose NAND2
// decomposition is levels deep, and a network holding exactly that
// chain: !(b*!(a*!(b*...))) over inputs a and b.
func deepChainLibrary(t *testing.T, levels int) (*Library, *Network) {
	t.Helper()
	expr := "a"
	var blif strings.Builder
	blif.WriteString(".model deepchain\n.inputs a b\n.outputs o\n")
	prev := "a"
	for i := 0; i < levels; i++ {
		v := "ab"[i%2 : i%2+1]
		expr = "!(" + v + "*" + expr + ")"
		out := fmt.Sprintf("n%d", i)
		if i == levels-1 {
			out = "o"
		}
		fmt.Fprintf(&blif, ".names %s %s %s\n0- 1\n-0 1\n", v, prev, out)
		prev = out
	}
	blif.WriteString(".end\n")
	deep, err := LoadLibrary("deep", strings.NewReader(
		"GATE deepchain 40 O="+expr+";\nPIN * UNKNOWN 1 999 1 0 1 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	lib := Lib441()
	if err := lib.Add(deep.Gates[0]); err != nil {
		t.Fatal(err)
	}
	nw, err := ParseBLIF(strings.NewReader(blif.String()))
	if err != nil {
		t.Fatal(err)
	}
	return lib, nw
}

// A pattern too deep to key (deeper than the memo's depth guard) turns
// the memo off only at roots of its signature buckets: the rest of the
// library still hits, and netlists stay byte-identical with the memo on
// or off — including the deep gate's own chain, which it covers.
func TestMemoDeepPatternNetlists(t *testing.T) {
	lib, chain := deepChainLibrary(t, 40)
	cl := compile(t, lib)
	for _, c := range []bench.Circuit{
		{Name: "deepchain", Network: chain},
		{Name: "C432", Network: bench.C432()},
		{Name: "C6288", Network: bench.C6288()},
	} {
		ref := renderBLIF(t, c.Network, MapOptions{Library: cl, Delay: UnitDelay, NoMemo: true})
		if c.Name == "deepchain" && !bytes.Contains(ref, []byte("deepchain")) {
			t.Fatalf("the deep gate does not cover its own chain:\n%s", ref)
		}
		for _, par := range []int{1, 4} {
			res := mapNet(t, c.Network, MapOptions{Library: cl, Delay: UnitDelay, Parallelism: par})
			var got bytes.Buffer
			if err := res.Netlist.WriteBLIF(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(ref, got.Bytes()) {
				t.Errorf("%s: memo-on netlist at parallelism %d differs from memo-off", c.Name, par)
			}
			if c.Name == "C6288" && res.MemoHits == 0 {
				t.Errorf("%s: no memo hits; the deep pattern turned the memo off library-wide", c.Name)
			}
		}
	}
}

// Memo counters surface in MapResult and describe this run alone:
// every run starts with empty tables, so a rerun of the same circuit on
// the same compiled library reports exactly the cold run's hits,
// misses and entries, and a memo-off run reports none.
func TestMemoCountersInMapResult(t *testing.T) {
	cl := compile(t, Lib441())
	nw := bench.C432()
	cold := mapNet(t, nw, MapOptions{Library: cl}) // the memo defaults on
	if cold.MemoMisses == 0 || cold.MemoHits == 0 {
		t.Errorf("cold run reported %d hits, %d misses; want both nonzero", cold.MemoHits, cold.MemoMisses)
	}
	if cold.MemoEntries == 0 {
		t.Error("cold run left an empty table")
	}
	warm := mapNet(t, nw, MapOptions{Library: cl})
	if warm.MemoHits != cold.MemoHits || warm.MemoMisses != cold.MemoMisses || warm.MemoEntries != cold.MemoEntries {
		t.Errorf("rerun reported %d hits, %d misses, %d entries; the cold run %d, %d, %d",
			warm.MemoHits, warm.MemoMisses, warm.MemoEntries, cold.MemoHits, cold.MemoMisses, cold.MemoEntries)
	}
	off := mapNet(t, nw, MapOptions{Library: cl, NoMemo: true})
	if off.MemoHits != 0 || off.MemoMisses != 0 || off.MemoEntries != 0 {
		t.Errorf("memo-off run consulted a table: %d hits, %d misses, %d entries",
			off.MemoHits, off.MemoMisses, off.MemoEntries)
	}
	tree := mapNet(t, nw, MapOptions{Library: cl, Mode: ModeTree})
	if tree.MemoMisses == 0 || tree.MemoEntries == 0 {
		t.Errorf("tree run reported %d misses, %d entries; want both nonzero", tree.MemoMisses, tree.MemoEntries)
	}
}
