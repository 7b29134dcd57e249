package libgen

import (
	"bytes"
	"strings"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/logic"
)

// hasInverter reports whether lib has a one-input gate computing the
// complement of its input.
func hasInverter(lib *genlib.Library) bool {
	for _, g := range lib.Gates {
		if g.NumInputs() != 1 {
			continue
		}
		eq, err := logic.Equivalent(g.Expr.Rename(map[string]string{g.Pins[0].Name: "a"}), logic.MustParse("!a"))
		if err == nil && eq {
			return true
		}
	}
	return false
}

// maxIntrinsic returns the largest intrinsic delay over g's pins.
func maxIntrinsic(g *genlib.Gate) float64 {
	max := 0.0
	for _, p := range g.Pins {
		if d := p.Intrinsic(); d > max {
			max = d
		}
	}
	return max
}

func TestLib2Contents(t *testing.T) {
	lib := Lib2()
	if len(lib.Gates) != 26 {
		t.Errorf("lib2 gates = %d, want 26", len(lib.Gates))
	}
	if !hasInverter(lib) || lib.Nand2() == nil || lib.Buffer() == nil {
		t.Fatal("lib2 missing inv/nand2/buf")
	}
	// Every gate function must mention every pin.
	for _, g := range lib.Gates {
		if len(g.Expr.Vars()) != g.NumInputs() {
			t.Errorf("gate %q: %d vars vs %d pins", g.Name, len(g.Expr.Vars()), g.NumInputs())
		}
		if maxIntrinsic(g) <= 0 {
			t.Errorf("gate %q has no delay", g.Name)
		}
		if g.Area <= 0 {
			t.Errorf("gate %q has no area", g.Name)
		}
	}
	// Complex gates must be faster than their naive compositions:
	// aoi21 < nand2 + inv path.
	aoi := lib.Gate("aoi21")
	nand := lib.Gate("nand2")
	inv := lib.Gate("inv")
	if maxIntrinsic(aoi) >= maxIntrinsic(nand)+maxIntrinsic(inv) {
		t.Errorf("aoi21 (%v) not faster than nand2+inv (%v)",
			maxIntrinsic(aoi), maxIntrinsic(nand)+maxIntrinsic(inv))
	}
}

func TestLib441Contents(t *testing.T) {
	lib := Lib441()
	if len(lib.Gates) != 7 {
		t.Fatalf("44-1 gates = %d, want 7 (paper)", len(lib.Gates))
	}
	for _, want := range []string{"inv", "nand2", "nand3", "nand4", "nor2", "nor3", "nor4"} {
		if lib.Gate(want) == nil {
			t.Errorf("44-1 missing %q", want)
		}
	}
	var unit genlib.UnitDelay
	for _, g := range lib.Gates {
		for i := range g.Pins {
			if d := unit.PinDelay(g, i); d != 1 {
				t.Errorf("44-1 %s pin %d unit delay = %v", g.Name, i, d)
			}
			if g.Pins[i].Intrinsic() != 1 {
				t.Errorf("44-1 %s pin %d intrinsic = %v, want 1", g.Name, i, g.Pins[i].Intrinsic())
			}
		}
	}
}

func TestLib443Properties(t *testing.T) {
	l441 := Lib441()
	l443 := Lib443()
	if len(l443.Gates) < 200 {
		t.Errorf("44-3 has only %d gates; expected a rich library", len(l443.Gates))
	}
	s := l443.Stats()
	if s.MaxInputs != 16 {
		t.Errorf("44-3 max inputs = %d, want 16 (paper footnote 5)", s.MaxInputs)
	}
	// Strict superset of 44-1 by function.
	for _, g := range l441.Gates {
		h := l443.Gate(g.Name)
		if h == nil {
			t.Errorf("44-3 missing 44-1 gate %q", g.Name)
			continue
		}
		eq, err := logic.Equivalent(g.Expr, h.Expr)
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("44-3 gate %q differs from 44-1's", g.Name)
		}
	}
	t.Logf("44-3 stand-in gate count: %d", len(l443.Gates))
}

func TestLib443NoDuplicateFunctions(t *testing.T) {
	lib := Lib443()
	seen := map[string]string{}
	for _, g := range lib.Gates {
		key := g.Expr.String()
		if prev, dup := seen[key]; dup {
			t.Errorf("gates %q and %q share function %s", prev, g.Name, key)
		}
		seen[key] = g.Name
	}
}

func TestRichRichnessMonotone(t *testing.T) {
	prev := 0
	for gs := 1; gs <= 4; gs++ {
		lib := Rich("sweep", RichOptions{MaxGroupSize: gs})
		if len(lib.Gates) <= prev {
			t.Errorf("richness not monotone at group size %d: %d <= %d", gs, len(lib.Gates), prev)
		}
		prev = len(lib.Gates)
	}
}

func TestGroupShapes(t *testing.T) {
	shapes := groupShapes(4, 4)
	if len(shapes) != 69 {
		t.Errorf("groupShapes(4,4) = %d shapes, want 69 (multisets of 1..4 sizes, 1..4 groups)", len(shapes))
	}
	for _, s := range shapes {
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1] {
				t.Errorf("shape %v not non-increasing", s)
			}
		}
	}
	if got := len(groupShapes(1, 1)); got != 1 {
		t.Errorf("groupShapes(1,1) = %d, want 1", got)
	}
}

func TestCanonicalNames(t *testing.T) {
	lib := Lib443()
	cases := map[string]string{
		"inv":   "!a",
		"nand4": "!(a*b*c*d)",
		"nor3":  "!(a+b+c)",
		"and2":  "a*b",
		"or4":   "a+b+c+d",
	}
	for name, fn := range cases {
		g := lib.Gate(name)
		if g == nil {
			t.Errorf("44-3 lacks canonical gate %q", name)
			continue
		}
		eq, err := logic.Equivalent(g.Expr, logic.MustParse(fn))
		if err != nil {
			t.Fatal(err)
		}
		if !eq {
			t.Errorf("gate %q is not %s", name, fn)
		}
	}
}

func TestWideAOIPresent(t *testing.T) {
	lib := Lib443()
	g := lib.Gate("aoi4444")
	if g == nil {
		t.Fatal("44-3 missing the 4x4 AOI (16-input) gate")
	}
	if g.NumInputs() != 16 {
		t.Errorf("aoi4444 inputs = %d, want 16", g.NumInputs())
	}
}

func TestGeneratedLibrariesSerialize(t *testing.T) {
	for _, lib := range []*genlib.Library{Lib2(), Lib441(), Lib443()} {
		var buf bytes.Buffer
		if err := genlib.Write(&buf, lib); err != nil {
			t.Fatalf("%s: %v", lib.Name, err)
		}
		again, err := genlib.ParseString(lib.Name, buf.String())
		if err != nil {
			t.Fatalf("%s: reparse: %v", lib.Name, err)
		}
		if len(again.Gates) != len(lib.Gates) {
			t.Errorf("%s: %d gates after round trip, want %d", lib.Name, len(again.Gates), len(lib.Gates))
		}
	}
}

func TestThreeLevelGates(t *testing.T) {
	with := Rich("3l", RichOptions{ThreeLevel: true})
	without := Rich("2l", RichOptions{})
	if len(with.Gates) <= len(without.Gates) {
		t.Errorf("3-level generation added no gates: %d vs %d", len(with.Gates), len(without.Gates))
	}
	// A known 3-level gate: aoi3 on shape [2] = !((a+b)*(c+d)) is a
	// duplicate of oai22, so check a genuinely 3-level one: shape
	// [2,1] -> !((a+b)*(c+d) + (e+f)).
	g := with.Gate("aoi3_21")
	if g == nil {
		t.Fatal("missing aoi3_21")
	}
	eq, err := logic.Equivalent(g.Expr, logic.MustParse("!((a+b)*(c+d)+(e+f))"))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Errorf("aoi3_21 = %v", g.Expr)
	}
}

func TestSupergatesCompose(t *testing.T) {
	base := Lib2()
	sup := Supergates(base, 5, 1)
	if len(sup.Gates) <= len(base.Gates) {
		t.Fatalf("supergates added nothing: %d vs %d", len(sup.Gates), len(base.Gates))
	}
	// Every base gate function survives.
	keys := map[string]bool{}
	for _, g := range sup.Gates {
		keys[g.FunctionKey()] = true
	}
	for _, g := range base.Gates {
		if !keys[g.FunctionKey()] {
			t.Errorf("base gate %q lost", g.Name)
		}
	}
	// Spot-check one composite: nand2 with pin a driven by nand2 is
	// !(!(x*y)*b) = x*y + !b.
	found := false
	for _, g := range sup.Gates {
		eq, err := logic.Equivalent(g.Expr, logic.MustParse("i0*i1+!o1"))
		if err != nil {
			t.Fatal(err)
		}
		if eq && g.NumInputs() == 3 {
			found = true
			// Composed pin delay: inner nand2 pin (0.6) + outer nand2
			// pin (0.6) = 1.2 on the inner pins.
			for _, p := range g.Pins {
				if p.Name == "i0" && p.RiseBlock != 1.2 {
					t.Errorf("composed pin delay = %v, want 1.2", p.RiseBlock)
				}
			}
		}
	}
	if !found {
		t.Error("nand2-of-nand2 composite missing")
	}
	t.Logf("supergate library: %d gates (base %d)", len(sup.Gates), len(base.Gates))
}

func TestSupergatesRespectInputCap(t *testing.T) {
	// The cap applies to composites; base gates are kept verbatim
	// (lib2's aoi33 legitimately has 6 inputs).
	sup := Supergates(Lib2(), 4, 1)
	for _, g := range sup.Gates {
		if strings.Contains(g.Name, "@") && g.NumInputs() > 4 {
			t.Errorf("composite %q has %d inputs > cap 4", g.Name, g.NumInputs())
		}
	}
}

func TestSupergatesNoDuplicateFunctions(t *testing.T) {
	sup := Supergates(Lib441(), 5, 1)
	seen := map[string]string{}
	for _, g := range sup.Gates {
		key := g.FunctionKey()
		if prev, dup := seen[key]; dup {
			t.Errorf("gates %q and %q share function %s", prev, g.Name, key)
		}
		seen[key] = g.Name
	}
}

func TestSupergateDiscount(t *testing.T) {
	sup := Supergates(Lib441(), 5, 0.8)
	found := false
	for _, g := range sup.Gates {
		if strings.Contains(g.Name, "@") {
			found = true
			// Unit-delay base: composed = (1+1)*0.8 = 1.6 on inner pins.
			for _, p := range g.Pins {
				if strings.HasPrefix(p.Name, "i") && p.RiseBlock != 1.6 {
					t.Fatalf("gate %q pin %q delay %v, want 1.6", g.Name, p.Name, p.RiseBlock)
				}
			}
		}
	}
	if !found {
		t.Fatal("no composites generated")
	}
}
