// Package logic provides Boolean expression ASTs, a parser for the
// expression syntax used by genlib gate libraries, truth tables, and
// 64-way bit-parallel evaluation.
//
// Expressions are built from variables, the constants 0 and 1,
// negation (! prefix or ' postfix), conjunction (*, or juxtaposition),
// disjunction (+), and exclusive-or (^). AND and OR nodes are n-ary.
package logic

import (
	"fmt"
	"sort"
	"strings"
)

// Op identifies the operator at the root of an expression node.
type Op int

const (
	// OpConst is a constant node; Const holds its value.
	OpConst Op = iota
	// OpVar is a variable reference; Var holds its name.
	OpVar
	// OpNot is a negation with exactly one child.
	OpNot
	// OpAnd is an n-ary conjunction with at least two children.
	OpAnd
	// OpOr is an n-ary disjunction with at least two children.
	OpOr
	// OpXor is an n-ary exclusive-or with at least two children.
	OpXor
)

// String returns the operator name.
func (op Op) String() string {
	switch op {
	case OpConst:
		return "const"
	case OpVar:
		return "var"
	case OpNot:
		return "not"
	case OpAnd:
		return "and"
	case OpOr:
		return "or"
	case OpXor:
		return "xor"
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// Expr is a node of a Boolean expression tree.
type Expr struct {
	Op    Op
	Var   string  // variable name when Op == OpVar
	Const bool    // constant value when Op == OpConst
	Kids  []*Expr // operands for OpNot/OpAnd/OpOr/OpXor
}

// Constant returns a constant expression.
func Constant(v bool) *Expr { return &Expr{Op: OpConst, Const: v} }

// Variable returns a variable reference expression.
func Variable(name string) *Expr { return &Expr{Op: OpVar, Var: name} }

// Not returns the negation of e, folding double negation and constants.
func Not(e *Expr) *Expr {
	switch e.Op {
	case OpNot:
		return e.Kids[0]
	case OpConst:
		return Constant(!e.Const)
	}
	return &Expr{Op: OpNot, Kids: []*Expr{e}}
}

// And returns the conjunction of the operands, flattening nested ANDs
// and folding constants. With zero operands it returns the constant 1.
func And(kids ...*Expr) *Expr { return nary(OpAnd, kids) }

// Or returns the disjunction of the operands, flattening nested ORs
// and folding constants. With zero operands it returns the constant 0.
func Or(kids ...*Expr) *Expr { return nary(OpOr, kids) }

// Xor returns the exclusive-or of the operands, flattening nested XORs.
func Xor(kids ...*Expr) *Expr {
	flat := make([]*Expr, 0, len(kids))
	neg := false
	for _, k := range kids {
		switch k.Op {
		case OpXor:
			flat = append(flat, k.Kids...)
		case OpConst:
			if k.Const {
				neg = !neg
			}
		default:
			flat = append(flat, k)
		}
	}
	var out *Expr
	switch len(flat) {
	case 0:
		out = Constant(false)
	case 1:
		out = flat[0]
	default:
		out = &Expr{Op: OpXor, Kids: flat}
	}
	if neg {
		out = Not(out)
	}
	return out
}

func nary(op Op, kids []*Expr) *Expr {
	identity := op == OpAnd // AND identity is 1, absorbing is 0; OR dual
	flat := make([]*Expr, 0, len(kids))
	for _, k := range kids {
		if k.Op == op {
			flat = append(flat, k.Kids...)
			continue
		}
		if k.Op == OpConst {
			if k.Const == identity {
				continue // identity element: drop
			}
			return Constant(!identity) // absorbing element
		}
		flat = append(flat, k)
	}
	switch len(flat) {
	case 0:
		return Constant(identity)
	case 1:
		return flat[0]
	}
	return &Expr{Op: op, Kids: flat}
}

// Substitute replaces variable v with expression rep in e. Subtrees
// without v are shared with e, not copied.
func Substitute(e *Expr, v string, rep *Expr) *Expr {
	if e.Op == OpVar {
		if e.Var == v {
			return rep.Clone()
		}
		return e
	}
	c := &Expr{Op: e.Op, Var: e.Var, Const: e.Const}
	c.Kids = make([]*Expr, len(e.Kids))
	for i, k := range e.Kids {
		c.Kids[i] = Substitute(k, v, rep)
	}
	return c
}

// Fold rebuilds e through the folding constructors, propagating
// constants: the normalization every subject-graph builder applies
// after substituting constant fanins, so streamed and AST-built graphs
// decompose identical expressions.
func Fold(e *Expr) *Expr {
	switch e.Op {
	case OpConst, OpVar:
		return e
	case OpNot:
		return Not(Fold(e.Kids[0]))
	case OpAnd, OpOr, OpXor:
		kids := make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = Fold(k)
		}
		switch e.Op {
		case OpAnd:
			return And(kids...)
		case OpOr:
			return Or(kids...)
		default:
			return Xor(kids...)
		}
	}
	return e
}

// Clone returns a deep copy of e.
func (e *Expr) Clone() *Expr {
	if e == nil {
		return nil
	}
	c := &Expr{Op: e.Op, Var: e.Var, Const: e.Const}
	if len(e.Kids) > 0 {
		c.Kids = make([]*Expr, len(e.Kids))
		for i, k := range e.Kids {
			c.Kids[i] = k.Clone()
		}
	}
	return c
}

// Vars returns the distinct variable names appearing in e, sorted.
func (e *Expr) Vars() []string {
	set := map[string]bool{}
	e.collectVars(set)
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

func (e *Expr) collectVars(set map[string]bool) {
	if e.Op == OpVar {
		set[e.Var] = true
	}
	for _, k := range e.Kids {
		k.collectVars(set)
	}
}

// Size returns the number of nodes in the expression tree.
func (e *Expr) Size() int {
	n := 1
	for _, k := range e.Kids {
		n += k.Size()
	}
	return n
}

// Literals returns the number of variable occurrences (literal count).
func (e *Expr) Literals() int {
	if e.Op == OpVar {
		return 1
	}
	n := 0
	for _, k := range e.Kids {
		n += k.Literals()
	}
	return n
}

// Depth returns the height of the expression tree; leaves have depth 0.
func (e *Expr) Depth() int {
	d := 0
	for _, k := range e.Kids {
		if kd := k.Depth(); kd > d {
			d = kd
		}
	}
	if len(e.Kids) == 0 {
		return 0
	}
	return d + 1
}

// Eval evaluates e under the given assignment. Variables absent from
// the assignment evaluate to false.
func (e *Expr) Eval(assign map[string]bool) bool {
	switch e.Op {
	case OpConst:
		return e.Const
	case OpVar:
		return assign[e.Var]
	case OpNot:
		return !e.Kids[0].Eval(assign)
	case OpAnd:
		for _, k := range e.Kids {
			if !k.Eval(assign) {
				return false
			}
		}
		return true
	case OpOr:
		for _, k := range e.Kids {
			if k.Eval(assign) {
				return true
			}
		}
		return false
	case OpXor:
		v := false
		for _, k := range e.Kids {
			v = v != k.Eval(assign)
		}
		return v
	}
	panic("logic: invalid expression op")
}

// EvalBatch evaluates e on 64 assignments in parallel: bit i of each
// input word is the value of that variable in assignment i.
func (e *Expr) EvalBatch(assign map[string]uint64) uint64 {
	switch e.Op {
	case OpConst:
		if e.Const {
			return ^uint64(0)
		}
		return 0
	case OpVar:
		return assign[e.Var]
	case OpNot:
		return ^e.Kids[0].EvalBatch(assign)
	case OpAnd:
		v := ^uint64(0)
		for _, k := range e.Kids {
			v &= k.EvalBatch(assign)
			if v == 0 {
				break
			}
		}
		return v
	case OpOr:
		v := uint64(0)
		for _, k := range e.Kids {
			v |= k.EvalBatch(assign)
			if v == ^uint64(0) {
				break
			}
		}
		return v
	case OpXor:
		v := uint64(0)
		for _, k := range e.Kids {
			v ^= k.EvalBatch(assign)
		}
		return v
	}
	panic("logic: invalid expression op")
}

// Rename returns a copy of e with every variable renamed through m.
// Variables not present in m are kept unchanged.
func (e *Expr) Rename(m map[string]string) *Expr {
	c := e.Clone()
	c.renameInPlace(m)
	return c
}

func (e *Expr) renameInPlace(m map[string]string) {
	if e.Op == OpVar {
		if nn, ok := m[e.Var]; ok {
			e.Var = nn
		}
	}
	for _, k := range e.Kids {
		k.renameInPlace(m)
	}
}

// String renders e in genlib syntax: ! for negation, * for AND, + for
// OR, ^ for XOR, with minimal parentheses.
func (e *Expr) String() string {
	var b strings.Builder
	e.write(&b, 0)
	return b.String()
}

// precedence: OR=1, XOR=2, AND=3, NOT=4, atoms=5
func (e *Expr) prec() int {
	switch e.Op {
	case OpOr:
		return 1
	case OpXor:
		return 2
	case OpAnd:
		return 3
	case OpNot:
		return 4
	}
	return 5
}

func (e *Expr) write(b *strings.Builder, outer int) {
	p := e.prec()
	paren := p < outer
	if paren {
		b.WriteByte('(')
	}
	switch e.Op {
	case OpConst:
		if e.Const {
			b.WriteString("CONST1")
		} else {
			b.WriteString("CONST0")
		}
	case OpVar:
		b.WriteString(e.Var)
	case OpNot:
		b.WriteByte('!')
		e.Kids[0].write(b, 5)
	case OpAnd:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteByte('*')
			}
			k.write(b, 3)
		}
	case OpOr:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteByte('+')
			}
			k.write(b, 2)
		}
	case OpXor:
		for i, k := range e.Kids {
			if i > 0 {
				b.WriteByte('^')
			}
			k.write(b, 3)
		}
	}
	if paren {
		b.WriteByte(')')
	}
}
