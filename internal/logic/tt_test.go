package logic

import (
	"math/bits"
	"math/rand"
	"testing"
)

// bit reports the function value on row r.
func bit(t *TT, r int) bool { return t.Bits[r/64]>>(uint(r)%64)&1 == 1 }

// onSetSize returns the number of rows on which the function is true.
func onSetSize(t *TT) int {
	n := 0
	for _, w := range t.Bits {
		n += bits.OnesCount64(w)
	}
	return n
}

// mustTT is NewTT that panics on error.
func mustTT(e *Expr, vars []string) *TT {
	t, err := NewTT(e, vars)
	if err != nil {
		panic(err)
	}
	return t
}

func TestTTBasics(t *testing.T) {
	tt := mustTT(MustParse("a*b"), []string{"a", "b"})
	// Rows: 00 01 10 11 over (b,a)? Row bit i = Vars[i]; row 3 = a=1,b=1.
	want := []bool{false, false, false, true}
	for r, w := range want {
		if bit(tt, r) != w {
			t.Errorf("a*b row %d = %v, want %v", r, bit(tt, r), w)
		}
	}
	if onSetSize(tt) != 1 {
		t.Errorf("OnSetSize = %d, want 1", onSetSize(tt))
	}
	if tt.Rows() != 4 {
		t.Errorf("Rows = %d, want 4", tt.Rows())
	}
}

func TestTTVariableOrder(t *testing.T) {
	// In "a" over order [b, a], row bit 1 is a.
	tt := mustTT(MustParse("a"), []string{"b", "a"})
	for r := 0; r < 4; r++ {
		want := r&2 != 0
		if bit(tt, r) != want {
			t.Errorf("row %d = %v, want %v", r, bit(tt, r), want)
		}
	}
}

func TestTTErrors(t *testing.T) {
	if _, err := NewTT(MustParse("a*b"), []string{"a"}); err == nil {
		t.Error("missing variable: expected error")
	}
	if _, err := NewTT(MustParse("a"), []string{"a", "a"}); err == nil {
		t.Error("duplicate variable: expected error")
	}
	vars := make([]string, MaxTTVars+1)
	for i := range vars {
		vars[i] = varName(i)
	}
	if _, err := NewTT(MustParse("a"), vars); err == nil {
		t.Error("too many variables: expected error")
	}
}

func TestTTManyVariables(t *testing.T) {
	// 8-variable AND: exactly one on-set row, the last.
	kids := make([]*Expr, 8)
	vars := make([]string, 8)
	for i := range kids {
		vars[i] = varName(i)
		kids[i] = Variable(vars[i])
	}
	tt := mustTT(And(kids...), vars)
	if onSetSize(tt) != 1 {
		t.Fatalf("AND8 on-set = %d, want 1", onSetSize(tt))
	}
	if !bit(tt, 255) {
		t.Fatalf("AND8 row 255 should be 1")
	}
	// 10-variable parity: half the rows on.
	kids = kids[:0]
	vars = vars[:0]
	for i := 0; i < 10; i++ {
		vars = append(vars, varName(i))
		kids = append(kids, Variable(varName(i)))
	}
	tt = mustTT(Xor(kids...), vars)
	if got, want := onSetSize(tt), 512; got != want {
		t.Fatalf("XOR10 on-set = %d, want %d", got, want)
	}
}

// Property: the truth table agrees with direct evaluation row by row,
// including across the 64-row word boundary (7+ variables).
func TestTTMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		nVars := 1 + rng.Intn(8)
		e := randExpr(rng, 4, nVars)
		vars := make([]string, nVars)
		for i := range vars {
			vars[i] = varName(i)
		}
		tt := mustTT(e, vars)
		for r := 0; r < tt.Rows(); r++ {
			assign := map[string]bool{}
			for i, v := range vars {
				assign[v] = r>>uint(i)&1 == 1
			}
			if bit(tt, r) != e.Eval(assign) {
				t.Fatalf("trial %d: row %d disagrees for %v", trial, r, e)
			}
		}
	}
}

func TestEquivalentDifferentSupports(t *testing.T) {
	// a*b vs a*b + a*!b*0: same function, support handling must align.
	eq, err := Equivalent(MustParse("a*b"), MustParse("a*b+c*!c"))
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Error("a*b and a*b+c*!c should be equivalent")
	}
}
