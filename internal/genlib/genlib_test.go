package genlib

import (
	"bytes"
	"testing"

	"dagcover/internal/logic"
)

// pinIndex returns the index of g's named pin, or -1.
func pinIndex(g *Gate, name string) int {
	for i, p := range g.Pins {
		if p.Name == name {
			return i
		}
	}
	return -1
}

// maxIntrinsic returns the largest intrinsic delay over g's pins (the
// gate delay under the worst-pin view); 0 for constant gates.
func maxIntrinsic(g *Gate) float64 {
	max := 0.0
	for _, p := range g.Pins {
		if d := p.Intrinsic(); d > max {
			max = d
		}
	}
	return max
}

// inverter returns l's minimum-area inverter gate, or nil.
func inverter(l *Library) *Gate { return l.cheapest("!a") }

const sampleLib = `
# a tiny library
GATE inv1 1.0 O=!a;
  PIN a INV 1 999 0.4 0.1 0.4 0.1
GATE nand2 2.0 O=!(a*b);
  PIN * INV 1 999 0.6 0.15 0.6 0.15
GATE aoi21 3.0 O=!(a*b+c);
  PIN a INV 1 999 0.9 0.2 0.8 0.2
  PIN b INV 1 999 0.9 0.2 0.8 0.2
  PIN c INV 1 999 0.7 0.2 0.6 0.2
GATE zero 0.0 O=CONST0;
GATE buf 1.5 O=a;
  PIN a NONINV 1 999 0.5 0.1 0.5 0.1
`

func parseSample(t *testing.T) *Library {
	t.Helper()
	lib, err := ParseString("sample", sampleLib)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestParseLibrary(t *testing.T) {
	lib := parseSample(t)
	if len(lib.Gates) != 5 {
		t.Fatalf("gates = %d, want 5", len(lib.Gates))
	}
	inv := lib.Gate("inv1")
	if inv == nil || inv.Area != 1.0 || inv.NumInputs() != 1 {
		t.Fatalf("inv1 wrong: %+v", inv)
	}
	if inv.Pins[0].Phase != PhaseInv {
		t.Errorf("inv1 phase = %v", inv.Pins[0].Phase)
	}
	if got := inv.Pins[0].Intrinsic(); got != 0.4 {
		t.Errorf("inv1 intrinsic = %v", got)
	}
	nand := lib.Gate("nand2")
	if nand.NumInputs() != 2 {
		t.Fatalf("PIN * expansion failed: %d pins", nand.NumInputs())
	}
	if pinIndex(nand, "b") != 1 || pinIndex(nand, "zz") != -1 {
		t.Errorf("pinIndex wrong")
	}
	aoi := lib.Gate("aoi21")
	if got := aoi.Pins[pinIndex(aoi, "c")].Intrinsic(); got != 0.7 {
		t.Errorf("aoi21 c intrinsic = %v", got)
	}
	if got := maxIntrinsic(aoi); got != 0.9 {
		t.Errorf("aoi21 max intrinsic = %v", got)
	}
	zero := lib.Gate("zero")
	if zero.NumInputs() != 0 {
		t.Errorf("constant gate should have no pins")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"GATE g xx O=a; PIN a INV 1 999 1 0 1 0", // bad area
		"GATE g 1.0 O=a*b; PIN a INV 1 999 1 0 1 0", // missing pin b
		"GATE g 1.0 O=!a",                                                                   // missing ;
		"GATE g 1.0 a; PIN a INV 1 999 1 0 1 0",                                             // missing =
		"GATE g 1.0 O=!a; PIN a BAD 1 999 1 0 1 0",                                          // bad phase
		"GATE g 1.0 O=!a; PIN a INV 1 999 1 0 1",                                            // truncated PIN
		"GATE g 1.0 O=!(a*b); PIN * INV 1 999 1 0 1 0 PIN a INV 1 999 1 0 1 0",              // * mixed with named
		"GATE g 1.0 O=!a; PIN a INV 1 999 1 0 1 0 GATE g 1.0 O=!a; PIN a INV 1 999 1 0 1 0", // duplicate
		"FOO bar",
	}
	for _, c := range cases {
		if _, err := ParseString("bad", c); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

func TestLatchSkipped(t *testing.T) {
	lib, err := ParseString("l", `
LATCH dff 8.0 Q=D;
  PIN D NONINV 1 999 1 0 1 0
GATE inv 1.0 O=!a;
  PIN a INV 1 999 1 0 1 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Gates) != 1 || lib.Gate("inv") == nil {
		t.Errorf("latch skipping failed: %d gates", len(lib.Gates))
	}
}

func TestGateFuncResolver(t *testing.T) {
	lib := parseSample(t)
	fn, formals, ok := lib.GateFunc("aoi21")
	if !ok {
		t.Fatal("aoi21 not resolved")
	}
	if len(formals) != 3 {
		t.Fatalf("formals = %v", formals)
	}
	eq, err := logic.Equivalent(fn, logic.MustParse("!(a*b+c)"))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("resolved wrong function")
	}
	if _, _, ok := lib.GateFunc("nope"); ok {
		t.Error("unknown gate resolved")
	}
}

func TestSpecialGateLookup(t *testing.T) {
	lib := parseSample(t)
	if g := inverter(lib); g == nil || g.Name != "inv1" {
		t.Errorf("inverter = %v", g)
	}
	if g := lib.Nand2(); g == nil || g.Name != "nand2" {
		t.Errorf("Nand2 = %v", g)
	}
	if g := lib.Buffer(); g == nil || g.Name != "buf" {
		t.Errorf("Buffer = %v", g)
	}
	// Cheapest wins: add a cheaper inverter.
	lib2, err := ParseString("two-inv", `
GATE invA 2.0 O=!a;
 PIN a INV 1 999 1 0 1 0
GATE invB 0.5 O=!x;
 PIN x INV 1 999 1 0 1 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if g := inverter(lib2); g.Name != "invB" {
		t.Errorf("cheapest inverter = %v", g.Name)
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	lib := parseSample(t)
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatal(err)
	}
	again, err := ParseString("again", buf.String())
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if len(again.Gates) != len(lib.Gates) {
		t.Fatalf("gate count changed: %d -> %d", len(lib.Gates), len(again.Gates))
	}
	for _, g := range lib.Gates {
		h := again.Gate(g.Name)
		if h == nil {
			t.Fatalf("gate %q lost", g.Name)
		}
		if h.Area != g.Area || h.NumInputs() != g.NumInputs() {
			t.Errorf("gate %q changed: %+v vs %+v", g.Name, g, h)
		}
		eq, err := logic.Equivalent(g.Expr, h.Expr)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("gate %q function changed", g.Name)
		}
		for i := range g.Pins {
			if g.Pins[i] != h.Pins[i] {
				t.Errorf("gate %q pin %d changed: %+v vs %+v", g.Name, i, g.Pins[i], h.Pins[i])
			}
		}
	}
}

func TestDelayModels(t *testing.T) {
	lib := parseSample(t)
	aoi := lib.Gate("aoi21")
	var intr IntrinsicDelay
	if got := intr.PinDelay(aoi, 2); got != 0.7 {
		t.Errorf("intrinsic pin delay = %v", got)
	}
	var unit UnitDelay
	if got := unit.PinDelay(aoi, 0); got != 1 {
		t.Errorf("unit pin delay = %v", got)
	}
	if intr.Name() == unit.Name() {
		t.Error("model names must differ")
	}
}

func TestStats(t *testing.T) {
	lib := parseSample(t)
	s := lib.Stats()
	if s.Gates != 5 || s.MaxInputs != 3 {
		t.Errorf("stats = %+v", s)
	}
	if s.MinArea != 0.0 || s.MaxArea != 3.0 {
		t.Errorf("area stats = %+v", s)
	}
}
