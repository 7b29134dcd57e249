package logic

import "fmt"

// MaxTTVars is the largest support size for which truth tables can be
// built (2^16 bits = 1024 words).
const MaxTTVars = 16

// TT is a truth table over an ordered list of variables. Row r (an
// integer whose bit i gives the value of Vars[i]) is stored in bit
// r%64 of word r/64.
type TT struct {
	Vars []string
	Bits []uint64
}

// NewTT computes the truth table of e over the given variable order.
// Every variable of e must appear in vars; vars may include extra
// variables (the table is then degenerate in them).
func NewTT(e *Expr, vars []string) (*TT, error) {
	if len(vars) > MaxTTVars {
		return nil, fmt.Errorf("logic: %d variables exceeds the %d-variable truth-table limit", len(vars), MaxTTVars)
	}
	have := map[string]bool{}
	for _, v := range vars {
		if have[v] {
			return nil, fmt.Errorf("logic: duplicate variable %q in truth-table order", v)
		}
		have[v] = true
	}
	for _, v := range e.Vars() {
		if !have[v] {
			return nil, fmt.Errorf("logic: expression variable %q missing from truth-table order", v)
		}
	}
	rows := 1 << len(vars)
	words := (rows + 63) / 64
	t := &TT{Vars: append([]string(nil), vars...), Bits: make([]uint64, words)}

	// Bit-parallel: process 64 rows per batch.
	assign := make(map[string]uint64, len(vars))
	for w := 0; w < words; w++ {
		base := w * 64
		for i, v := range vars {
			assign[v] = varPattern(i, base)
		}
		t.Bits[w] = e.EvalBatch(assign)
	}
	// Mask out rows past the table size when rows < 64.
	if rows < 64 {
		t.Bits[0] &= (1 << rows) - 1
	}
	return t, nil
}

// varPattern returns the 64-bit slice of the canonical pattern of
// variable i starting at row base: bit r-base is set iff row r has
// variable i true.
func varPattern(i, base int) uint64 {
	if i >= 6 {
		// Variable i is constant across any aligned 64-row window.
		if base&(1<<i) != 0 {
			return ^uint64(0)
		}
		return 0
	}
	// Standard masks for the low 6 variables.
	masks := [6]uint64{
		0xAAAAAAAAAAAAAAAA,
		0xCCCCCCCCCCCCCCCC,
		0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00,
		0xFFFF0000FFFF0000,
		0xFFFFFFFF00000000,
	}
	return masks[i]
}

// Rows returns the number of rows (2^len(Vars)).
func (t *TT) Rows() int { return 1 << len(t.Vars) }

// Equal reports whether t and o have identical variable order and
// identical function values.
func (t *TT) Equal(o *TT) bool {
	if len(t.Vars) != len(o.Vars) || len(t.Bits) != len(o.Bits) {
		return false
	}
	for i := range t.Vars {
		if t.Vars[i] != o.Vars[i] {
			return false
		}
	}
	for i := range t.Bits {
		if t.Bits[i] != o.Bits[i] {
			return false
		}
	}
	return true
}

// Equivalent reports whether two expressions compute the same function
// over the union of their supports.
func Equivalent(a, b *Expr) (bool, error) {
	vars := map[string]bool{}
	for _, v := range a.Vars() {
		vars[v] = true
	}
	for _, v := range b.Vars() {
		vars[v] = true
	}
	order := make([]string, 0, len(vars))
	for v := range vars {
		order = append(order, v)
	}
	// Keep deterministic behaviour for error messages.
	sortStrings(order)
	ta, err := NewTT(a, order)
	if err != nil {
		return false, err
	}
	tb, err := NewTT(b, order)
	if err != nil {
		return false, err
	}
	return ta.Equal(tb), nil
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
