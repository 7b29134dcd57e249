package mapping

import (
	"bytes"
	"strings"
	"testing"

	"dagcover/internal/blif"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/network"
)

// buildAndOr builds f = !( (a NAND b) ) i.e. and2 via nand2+inv, plus
// an aoi21 computing g = !(a*b+c).
// gateCounts returns instances per gate name.
func gateCounts(n *Netlist) map[string]int {
	m := map[string]int{}
	for _, c := range n.Cells {
		m[c.Gate.Name]++
	}
	return m
}

func buildSample(t *testing.T) *Netlist {
	t.Helper()
	lib := libgen.Lib2()
	b := NewBuilder("sample")
	for _, in := range []string{"a", "b", "c"} {
		if err := b.AddInput(in); err != nil {
			t.Fatal(err)
		}
	}
	n1 := b.FreshNet()
	b.AddCell(lib.Gate("nand2"), []string{"a", "b"}, n1)
	b.AddCell(lib.Gate("inv"), []string{n1}, nameNet(b, "f"))
	b.AddCell(lib.Gate("aoi21"), []string{"a", "b", "c"}, nameNet(b, "g"))
	b.MarkOutput("f", "f")
	b.MarkOutput("g", "g")
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestBuilderAndChecks(t *testing.T) {
	nl := buildSample(t)
	if nl.NumCells() != 3 {
		t.Errorf("cells = %d", nl.NumCells())
	}
	wantArea := 1392.0 + 928.0 + 1856.0
	if nl.Area() != wantArea {
		t.Errorf("area = %v, want %v", nl.Area(), wantArea)
	}
	counts := gateCounts(nl)
	if counts["nand2"] != 1 || counts["inv"] != 1 || counts["aoi21"] != 1 {
		t.Errorf("counts = %v", counts)
	}
}

func TestTiming(t *testing.T) {
	nl := buildSample(t)
	tm, err := nl.Delay(genlib.IntrinsicDelay{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// f path: nand2 (0.6) + inv (0.4) = 1.0; g: aoi21 0.9.
	if tm.Arrival["f"] != 1.0 {
		t.Errorf("arrival f = %v", tm.Arrival["f"])
	}
	if tm.Arrival["g"] != 0.9 {
		t.Errorf("arrival g = %v", tm.Arrival["g"])
	}
	if tm.Delay != 1.0 || tm.CriticalPort != "f" {
		t.Errorf("delay = %v port %q", tm.Delay, tm.CriticalPort)
	}
	// PI arrival offsets shift the answer.
	tm, err = nl.Delay(genlib.IntrinsicDelay{}, map[string]float64{"c": 5})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Delay != 5.9 || tm.CriticalPort != "g" {
		t.Errorf("with arrivals: delay = %v port %q", tm.Delay, tm.CriticalPort)
	}
}

func TestCriticalPath(t *testing.T) {
	nl := buildSample(t)
	path, err := nl.CriticalPath(genlib.IntrinsicDelay{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 {
		t.Fatalf("path len = %d, want 2", len(path))
	}
	if path[0].Gate.Name != "nand2" || path[1].Gate.Name != "inv" {
		t.Errorf("path = %v -> %v", path[0].Gate.Name, path[1].Gate.Name)
	}
}

func TestToNetworkEquivalence(t *testing.T) {
	nl := buildSample(t)
	nw, err := nl.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	sim, err := network.NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]uint64{"a": 0xAA, "b": 0xCC, "c": 0xF0}
	out, err := sim.RunOutputs(in)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 8; r++ {
		a := in["a"]>>uint(r)&1 == 1
		bb := in["b"]>>uint(r)&1 == 1
		c := in["c"]>>uint(r)&1 == 1
		if got := out["f"]>>uint(r)&1 == 1; got != (a && bb) {
			t.Errorf("row %d: f=%v", r, got)
		}
		if got := out["g"]>>uint(r)&1 == 1; got != !(a && bb || c) {
			t.Errorf("row %d: g=%v", r, got)
		}
	}
}

func TestWriteBLIFRoundTrip(t *testing.T) {
	lib := libgen.Lib2()
	nl := buildSample(t)
	var buf bytes.Buffer
	if err := nl.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ".gate nand2") {
		t.Errorf("no .gate lines:\n%s", buf.String())
	}
	rd := &blif.Reader{Gates: lib}
	nw, err := rd.Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(nw.Outputs()) != 2 {
		t.Errorf("outputs after round trip = %d", len(nw.Outputs()))
	}
}

func TestBuilderErrors(t *testing.T) {
	lib := libgen.Lib2()
	b := NewBuilder("err")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInput("a"); err == nil {
		t.Error("duplicate input accepted")
	}
	// Undriven cell input.
	b.AddCell(lib.Gate("inv"), []string{"nope"}, b.FreshNet())
	if _, err := b.Netlist(); err == nil {
		t.Error("undriven input accepted")
	}
	// Double driver.
	b2 := NewBuilder("err2")
	if err := b2.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	b2.AddCell(lib.Gate("inv"), []string{"a"}, "x")
	b2.AddCell(lib.Gate("inv"), []string{"a"}, "x")
	if _, err := b2.Netlist(); err == nil {
		t.Error("double driver accepted")
	}
	// Cycle.
	b3 := NewBuilder("err3")
	b3.AddCell(lib.Gate("inv"), []string{"y"}, "x")
	b3.AddCell(lib.Gate("inv"), []string{"x"}, "y")
	if _, err := b3.Netlist(); err == nil {
		t.Error("cycle accepted")
	}
}

func TestTopoSortOutOfOrder(t *testing.T) {
	lib := libgen.Lib2()
	b := NewBuilder("ooo")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	// Add consumer before producer.
	b.AddCell(lib.Gate("inv"), []string{"m"}, "f")
	b.AddCell(lib.Gate("inv"), []string{"a"}, "m")
	b.MarkOutput("f", "f")
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	if nl.Cells[0].Output != "m" {
		t.Errorf("topo sort failed: first cell drives %q", nl.Cells[0].Output)
	}
}

// nameNet returns name if it is still free in b (and claims it),
// otherwise a fresh net.
func nameNet(b *Builder, name string) string {
	if name != "" && !b.taken(name) {
		b.claimed[b.net(name)] = true
		return name
	}
	return b.FreshNet()
}

func TestNameNetCollisions(t *testing.T) {
	b := NewBuilder("c")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if got := nameNet(b, "a"); got == "a" {
		t.Error("nameNet reused an existing name")
	}
	if got := nameNet(b, "fresh"); got != "fresh" {
		t.Errorf("nameNet denied a free name: %q", got)
	}
	b.Reserve("w0")
	if got := b.FreshNet(); got == "w0" {
		t.Error("FreshNet ignored reservation")
	}
}

func TestPortAliasing(t *testing.T) {
	lib := libgen.Lib2()
	b := NewBuilder("alias")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	b.AddCell(lib.Gate("inv"), []string{"a"}, "n")
	b.MarkOutput("o1", "n")
	b.MarkOutput("o2", "n")
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	nw, err := nl.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	sim, _ := network.NewSimulator(nw)
	out, err := sim.RunOutputs(map[string]uint64{"a": 0b01})
	if err != nil {
		t.Fatal(err)
	}
	if out["o1"] != out["o2"] {
		t.Error("aliased ports differ")
	}
	var buf bytes.Buffer
	if err := nl.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), ".names n o1") {
		t.Errorf("alias names missing:\n%s", buf.String())
	}
}
