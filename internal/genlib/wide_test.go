package genlib

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dagcover/internal/logic"
)

// wideGate builds an n-input NAND with per-pin delays 1.0 + i/10, the
// shape the supergate emitter produces (many pins, distinct delays).
func wideGate(t *testing.T, n int) *Gate {
	t.Helper()
	pins := make([]Pin, n)
	terms := make([]string, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("p%02d", i)
		d := 1.0 + float64(i)/10
		pins[i] = Pin{Name: name, Phase: PhaseInv, InputLoad: 1, MaxLoad: 999,
			RiseBlock: d, FallBlock: d}
		terms[i] = name
	}
	g := &Gate{
		Name:   fmt.Sprintf("wnand%d", n),
		Area:   float64(n),
		Output: "O",
		Expr:   logic.MustParse("!(" + strings.Join(terms, "*") + ")"),
		Pins:   pins,
	}
	return g
}

// TestWideGateConstruction covers gates beyond 10 input pins, which
// the supergate emitter depends on: pin order must be preserved, pin
// lookup must resolve every formal, and per-pin intrinsic delays must
// come back in the order the pins were declared.
func TestWideGateConstruction(t *testing.T) {
	for _, n := range []int{11, 13, 16} {
		g := wideGate(t, n)
		lib := NewLibrary("wide")
		if err := lib.Add(g); err != nil {
			t.Fatalf("Add(%d pins): %v", n, err)
		}
		if g.NumInputs() != n {
			t.Fatalf("NumInputs = %d, want %d", g.NumInputs(), n)
		}
		formals := g.Formals()
		if len(formals) != n {
			t.Fatalf("Formals = %d names, want %d", len(formals), n)
		}
		for i, name := range formals {
			if want := fmt.Sprintf("p%02d", i); name != want {
				t.Errorf("formal %d = %q, want %q (pin order not preserved)", i, name, want)
			}
			if got := pinIndex(g, name); got != i {
				t.Errorf("pinIndex(%q) = %d, want %d", name, got, i)
			}
		}
		// Pin-delay ordering: pin i's intrinsic is 1.0 + i/10, strictly
		// increasing, and maxIntrinsic sees the last pin.
		dm := IntrinsicDelay{}
		for i := 0; i < n; i++ {
			want := 1.0 + float64(i)/10
			if got := dm.PinDelay(g, i); got != want {
				t.Errorf("PinDelay(%d) = %v, want %v", i, got, want)
			}
			if i > 0 && dm.PinDelay(g, i) <= dm.PinDelay(g, i-1) {
				t.Errorf("pin delays not increasing at %d", i)
			}
		}
		if got, want := maxIntrinsic(g), 1.0+float64(n-1)/10; got != want {
			t.Errorf("maxIntrinsic = %v, want %v", got, want)
		}
	}
}

// TestWideGateRoundTrip writes a library with 11- and 16-input gates
// as genlib text and parses it back, checking that gate identity,
// areas, pin order, phases, and delays all survive.
func TestWideGateRoundTrip(t *testing.T) {
	lib := NewLibrary("wide")
	for _, n := range []int{11, 16} {
		if err := lib.Add(wideGate(t, n)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, lib); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Parse("wide", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Parse of written genlib: %v\n%s", err, buf.String())
	}
	if len(back.Gates) != len(lib.Gates) {
		t.Fatalf("round trip lost gates: %d -> %d", len(lib.Gates), len(back.Gates))
	}
	for _, g := range lib.Gates {
		h := back.Gate(g.Name)
		if h == nil {
			t.Fatalf("gate %q missing after round trip", g.Name)
		}
		if h.Area != g.Area {
			t.Errorf("%s: area %v -> %v", g.Name, g.Area, h.Area)
		}
		if len(h.Pins) != len(g.Pins) {
			t.Fatalf("%s: pins %d -> %d", g.Name, len(g.Pins), len(h.Pins))
		}
		for i := range g.Pins {
			if h.Pins[i] != g.Pins[i] {
				t.Errorf("%s: pin %d %+v -> %+v", g.Name, i, g.Pins[i], h.Pins[i])
			}
		}
		eq, err := logic.Equivalent(g.Expr, h.Expr)
		if err != nil {
			t.Fatalf("%s: equivalence check: %v", g.Name, err)
		}
		if !eq {
			t.Errorf("%s: function changed across round trip", g.Name)
		}
		if g.FunctionKey() != h.FunctionKey() {
			t.Errorf("%s: FunctionKey changed across round trip", g.Name)
		}
	}
}
