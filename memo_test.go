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
// whole suite, so later circuits run against a table warmed by earlier
// ones — the cross-request sharing mode — and must still be identical.
func TestMemoOutputByteIdentical(t *testing.T) {
	suites := []struct {
		lib      *Library
		delay    DelayModel
		circuits []bench.Circuit
	}{
		{Lib441(), UnitDelay, bench.FullSuite()},
		{Lib443(), UnitDelay, []bench.Circuit{
			{Name: "C432", Network: bench.C432()},
			{Name: "C6288", Network: bench.C6288()},
		}},
	}
	if testing.Short() {
		suites[0].circuits = []bench.Circuit{
			{Name: "C432", Network: bench.C432()},
			{Name: "C6288", Network: bench.C6288()},
		}
	}
	for _, s := range suites {
		cl := compile(t, s.lib)
		for _, c := range s.circuits {
			ref := renderBLIF(t, c.Network, MapOptions{
				Library: cl, Delay: s.delay, NoMemo: true,
			})
			for _, par := range []int{1, 4, 8} {
				got := renderBLIF(t, c.Network, MapOptions{
					Library: cl, Delay: s.delay, Parallelism: par,
				})
				if !bytes.Equal(ref, got) {
					t.Errorf("%s x %s: memo-on netlist at parallelism %d differs from memo-off",
						c.Name, s.lib.Name, par)
				}
			}
		}
		if st := cl.dag.Memo().Stats(); st.Hits == 0 {
			t.Errorf("%s: suite produced no memo hits — the equality check never exercised replay", s.lib.Name)
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

// Memo counters surface in MapResult: misses on a cold table, hits on
// a warm rerun, a populated table gauge, and an untouched table when
// the run opts out.
func TestMemoCountersInMapResult(t *testing.T) {
	cl := compile(t, Lib441())
	nw := bench.C432()
	cold := mapNet(t, nw, MapOptions{Library: cl}) // the memo defaults on
	if cold.MemoMisses == 0 {
		t.Error("cold run reported no memo misses")
	}
	if cold.MemoEntries == 0 {
		t.Error("cold run left an empty table")
	}
	warm := mapNet(t, nw, MapOptions{Library: cl})
	if warm.MemoHits == 0 {
		t.Error("warm rerun reported no memo hits")
	}
	if warm.MemoMisses != 0 {
		t.Errorf("warm rerun of the identical circuit missed %d times", warm.MemoMisses)
	}
	off := mapNet(t, nw, MapOptions{Library: cl, NoMemo: true})
	if off.MemoHits != 0 || off.MemoMisses != 0 {
		t.Errorf("memo-off run consulted the table: %d hits, %d misses", off.MemoHits, off.MemoMisses)
	}
	fresh := compile(t, Lib441())
	mapNet(t, nw, MapOptions{Library: fresh})
	if st := fresh.MemoStats(); st.Entries == 0 || st.Misses == 0 {
		t.Errorf("library MemoStats empty after a mapped request: %+v", st)
	}
}
