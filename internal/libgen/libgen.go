// Package libgen synthesizes the gate libraries used in the paper's
// experiments. The original MCNC libraries (lib2.genlib, 44-1.genlib,
// 44-3.genlib) are not redistributable here, so this package generates
// stand-ins that preserve the properties the experiments depend on:
//
//   - Lib2: a general standard-cell library (~26 gates) with
//     intrinsic pin delays and areas in lib2-like ranges.
//   - Lib441: the 7-gate library {INV, NAND2-4, NOR2-4} with unit
//     delay per gate.
//   - Lib443: a strict superset of Lib441 containing the full family
//     of 2-level AOI/OAI/AO/OA complex gates with up to 4 groups of up
//     to 4 literals (largest gate: 16 inputs, like the paper's 44-3)
//     plus 3-level variants; unit delay per gate.
//
// Lib2 carries non-zero load coefficients like the real lib2 (the
// mapping model zeroes them per footnote 4; load-dependent timing and
// the buffering post-pass use them); the unit-delay 44-x libraries
// have zero coefficients.
package libgen

import (
	"fmt"
	"strings"

	"dagcover/internal/genlib"
	"dagcover/internal/logic"
)

// uniformGate builds a gate whose pins all share one intrinsic delay
// and one load coefficient.
func uniformGate(name string, area float64, exprStr string, delay, loadCoeff float64) *genlib.Gate {
	e := logic.MustParse(exprStr)
	g := &genlib.Gate{Name: name, Area: area, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{
			Name: v, Phase: genlib.PhaseUnknown,
			InputLoad: 1, MaxLoad: 999,
			RiseBlock: delay, FallBlock: delay,
			RiseFanout: loadCoeff, FallFanout: loadCoeff,
		})
	}
	return g
}

func mustAdd(lib *genlib.Library, g *genlib.Gate) {
	if err := lib.Add(g); err != nil {
		panic(fmt.Sprintf("libgen: %v", err))
	}
}

// Lib2 returns the lib2-like general standard-cell library: 26 gates,
// intrinsic pin delays, realistic area ratios.
func Lib2() *genlib.Library {
	lib := genlib.NewLibrary("lib2")
	// Load coefficients follow lib2's pattern: small gates drive
	// poorly (larger coefficient), wide gates are buffered internally.
	// The paper's mapping model zeroes these (footnote 4); they feed
	// the load-dependent timing and the buffering post-pass.
	add := func(name string, area float64, expr string, delay float64) {
		coeff := 0.05 + 0.15*928/area
		mustAdd(lib, uniformGate(name, area, expr, delay, coeff))
	}
	add("inv", 928, "!a", 0.4)
	add("buf", 1392, "a", 0.7)
	add("nand2", 1392, "!(a*b)", 0.6)
	add("nand3", 1856, "!(a*b*c)", 0.8)
	add("nand4", 2320, "!(a*b*c*d)", 1.0)
	add("nor2", 1392, "!(a+b)", 0.8)
	add("nor3", 1856, "!(a+b+c)", 1.1)
	add("nor4", 2320, "!(a+b+c+d)", 1.4)
	add("and2", 1856, "a*b", 0.9)
	add("and3", 2320, "a*b*c", 1.1)
	add("and4", 2784, "a*b*c*d", 1.3)
	add("or2", 1856, "a+b", 1.1)
	add("or3", 2320, "a+b+c", 1.3)
	add("or4", 2784, "a+b+c+d", 1.5)
	add("aoi21", 1856, "!(a*b+c)", 0.9)
	add("aoi22", 2320, "!(a*b+c*d)", 1.1)
	add("oai21", 1856, "!((a+b)*c)", 0.9)
	add("oai22", 2320, "!((a+b)*(c+d))", 1.1)
	add("aoi33", 3248, "!(a*b*c+d*e*f)", 1.5)
	add("oai33", 3248, "!((a+b+c)*(d+e+f))", 1.5)
	add("aoi222", 3248, "!(a*b+c*d+e*f)", 1.5)
	add("oai222", 3248, "!((a+b)*(c+d)*(e+f))", 1.5)
	add("xor2", 2784, "a^b", 1.4)
	add("xnor2", 2784, "!(a^b)", 1.4)
	add("mux21", 3248, "s*a+!s*b", 1.4)
	add("aoi211", 2320, "!(a*b+c+d)", 1.2)
	return lib
}

// Lib441 returns the 7-gate 44-1 library {INV, NAND2-4, NOR2-4} with
// unit delay per gate.
func Lib441() *genlib.Library {
	lib := genlib.NewLibrary("44-1")
	add := func(name string, area float64, expr string) {
		mustAdd(lib, uniformGate(name, area, expr, 1, 0))
	}
	add("inv", 1, "!a")
	add("nand2", 2, "!(a*b)")
	add("nand3", 3, "!(a*b*c)")
	add("nand4", 4, "!(a*b*c*d)")
	add("nor2", 2, "!(a+b)")
	add("nor3", 3, "!(a+b+c)")
	add("nor4", 4, "!(a+b+c+d)")
	return lib
}

// RichOptions parameterizes the complex-gate library generator.
type RichOptions struct {
	// MaxGroups bounds the number of product/sum groups (paper: 4).
	MaxGroups int
	// MaxGroupSize bounds the literals per group (paper: 4).
	MaxGroupSize int
	// ThreeLevel additionally emits 3-level gates in which every
	// group literal is replaced by a 2-literal subgroup, up to
	// MaxInputs total inputs.
	ThreeLevel bool
	// XorFamily additionally emits the shared-literal complex gates
	// (XOR/XNOR, 3-input majority and minority, 2:1 mux and its
	// complement) that AOI/OAI shape enumeration cannot express. The
	// MCNC 44-3 library contained such cells; they are what lets a
	// rich library collapse full adders (the paper's C6288 rows).
	XorFamily bool
	// MaxInputs caps the gate width (paper: 16).
	MaxInputs int
	// Delay is the unit gate delay (default 1).
	Delay float64
}

func (o *RichOptions) defaults() {
	if o.MaxGroups == 0 {
		o.MaxGroups = 4
	}
	if o.MaxGroupSize == 0 {
		o.MaxGroupSize = 4
	}
	if o.MaxInputs == 0 {
		o.MaxInputs = 16
	}
	if o.Delay == 0 {
		o.Delay = 1
	}
}

// Lib443 returns the 44-3-like rich library: all 2-level AOI/OAI/AO/OA
// shapes up to 4 groups x 4 literals, 3-level variants, and the
// XOR/majority family; unit delay, deduplicated, strict superset of
// Lib441.
func Lib443() *genlib.Library {
	return Rich("44-3", RichOptions{ThreeLevel: true, XorFamily: true})
}

// Rich generates a complex-gate library according to o. Degenerate
// shapes collapse to the simple gates (INV, NAND, NOR, AND, OR), so
// the result always contains those; duplicates are removed by
// canonical function text.
func Rich(name string, o RichOptions) *genlib.Library {
	o.defaults()
	lib := genlib.NewLibrary(name)
	seen := map[string]bool{}
	add := func(e *logic.Expr, baseName string) {
		key := e.String()
		if seen[key] {
			return
		}
		vars := e.Vars()
		if len(vars) == 0 || len(vars) > o.MaxInputs {
			return
		}
		seen[key] = true
		area := float64(2 * e.Literals())
		if e.Op == logic.OpNot && e.Kids[0].Op == logic.OpVar {
			area = 1 // inverter
		}
		mustAdd(lib, uniformGate(canonicalName(e, baseName), area, key, o.Delay, 0))
	}

	shapes := groupShapes(o.MaxGroups, o.MaxGroupSize)
	for _, shape := range shapes {
		// 2-level families. AOI: !(sum of products); OAI: !(product of
		// sums); AO/OA: the non-inverted versions.
		sop := sumOfProducts(shape, 1)
		pos := productOfSums(shape, 1)
		add(logic.Not(sop), shapeName("aoi", shape))
		add(logic.Not(pos), shapeName("oai", shape))
		add(sop, shapeName("ao", shape))
		add(pos, shapeName("oa", shape))
		if o.ThreeLevel {
			// Each literal becomes a 2-literal subgroup, doubling the
			// width; keep only shapes within the input cap.
			if 2*sum(shape) <= o.MaxInputs {
				add(logic.Not(sumOfProducts(shape, 2)), shapeName("aoi3_", shape))
				add(logic.Not(productOfSums(shape, 2)), shapeName("oai3_", shape))
			}
		}
	}
	if o.XorFamily {
		add(logic.MustParse("a^b"), "xor2")
		add(logic.MustParse("!(a^b)"), "xnor2")
		add(logic.MustParse("a^b^c"), "xor3")
		add(logic.MustParse("!(a^b^c)"), "xnor3")
		add(logic.MustParse("a*b+a*c+b*c"), "maj3")
		add(logic.MustParse("!(a*b+a*c+b*c)"), "min3")
		add(logic.MustParse("s*a+!s*b"), "mux21")
		add(logic.MustParse("!(s*a+!s*b)"), "nmux21")
	}
	return lib
}

func sum(s []int) int {
	t := 0
	for _, v := range s {
		t += v
	}
	return t
}

// groupShapes enumerates non-increasing group-size multisets with
// 1..maxGroups groups of 1..maxSize literals each.
func groupShapes(maxGroups, maxSize int) [][]int {
	var out [][]int
	var rec func(prefix []int, maxNext int)
	rec = func(prefix []int, maxNext int) {
		if len(prefix) > 0 {
			cp := append([]int(nil), prefix...)
			out = append(out, cp)
		}
		if len(prefix) == maxGroups {
			return
		}
		for s := maxNext; s >= 1; s-- {
			rec(append(prefix, s), s)
		}
	}
	rec(nil, maxSize)
	return out
}

// sumOfProducts builds OR over groups of AND over literals, where each
// literal is itself an OR of `leafWidth` fresh variables (leafWidth=1
// gives plain literals; 2 gives 3-level structure).
func sumOfProducts(shape []int, leafWidth int) *logic.Expr {
	next := 0
	var groups []*logic.Expr
	for _, s := range shape {
		var lits []*logic.Expr
		for i := 0; i < s; i++ {
			lits = append(lits, leafGroup(&next, leafWidth, true))
		}
		groups = append(groups, logic.And(lits...))
	}
	return logic.Or(groups...)
}

// productOfSums is the dual: AND over groups of OR over literals, each
// literal an AND of leafWidth fresh variables when leafWidth > 1.
func productOfSums(shape []int, leafWidth int) *logic.Expr {
	next := 0
	var groups []*logic.Expr
	for _, s := range shape {
		var lits []*logic.Expr
		for i := 0; i < s; i++ {
			lits = append(lits, leafGroup(&next, leafWidth, false))
		}
		groups = append(groups, logic.Or(lits...))
	}
	return logic.And(groups...)
}

func leafGroup(next *int, width int, orLeaf bool) *logic.Expr {
	if width == 1 {
		return logic.Variable(pinName(postInc(next)))
	}
	var vs []*logic.Expr
	for i := 0; i < width; i++ {
		vs = append(vs, logic.Variable(pinName(postInc(next))))
	}
	if orLeaf {
		return logic.Or(vs...)
	}
	return logic.And(vs...)
}

func postInc(p *int) int { v := *p; *p++; return v }

// pinName yields a, b, ..., p, q, ... for pin indices.
func pinName(i int) string { return string(rune('a' + i)) }

func shapeName(family string, shape []int) string {
	var b strings.Builder
	b.WriteString(family)
	for _, s := range shape {
		fmt.Fprintf(&b, "%d", s)
	}
	return b.String()
}

// canonicalName recognizes degenerate shapes and names them after the
// simple gate they collapse to.
func canonicalName(e *logic.Expr, fallback string) string {
	inner := e
	inverted := false
	if e.Op == logic.OpNot {
		inner = e.Kids[0]
		inverted = true
	}
	allVars := func(kids []*logic.Expr) bool {
		for _, k := range kids {
			if k.Op != logic.OpVar {
				return false
			}
		}
		return true
	}
	switch {
	case inner.Op == logic.OpVar && inverted:
		return "inv"
	case inner.Op == logic.OpVar:
		return "buf"
	case inner.Op == logic.OpAnd && allVars(inner.Kids):
		if inverted {
			return fmt.Sprintf("nand%d", len(inner.Kids))
		}
		return fmt.Sprintf("and%d", len(inner.Kids))
	case inner.Op == logic.OpOr && allVars(inner.Kids):
		if inverted {
			return fmt.Sprintf("nor%d", len(inner.Kids))
		}
		return fmt.Sprintf("or%d", len(inner.Kids))
	}
	return fallback
}

// Sized derives a drive-strength family from a base library: each
// gate is emitted at the given size factors (name suffixed _x<f>).
// Scaling model: area and pin input load scale with the factor (a
// bigger gate presents more capacitance), the load-dependent fanout
// coefficients scale inversely (a bigger gate drives harder), and the
// intrinsic block delays stay put. This is the "many discrete size
// gates" approach the paper's §5 calls expensive, provided so the
// cost and the benefit can both be measured.
func Sized(base *genlib.Library, factors []float64) *genlib.Library {
	lib := genlib.NewLibrary(base.Name + "-sized")
	for _, g := range base.Gates {
		for _, f := range factors {
			ng := &genlib.Gate{
				Name:   fmt.Sprintf("%s_x%g", g.Name, f),
				Area:   g.Area * f,
				Output: g.Output,
				Expr:   g.Expr.Clone(),
			}
			for _, p := range g.Pins {
				np := p
				np.InputLoad = p.InputLoad * f
				np.RiseFanout = p.RiseFanout / f
				np.FallFanout = p.FallFanout / f
				ng.Pins = append(ng.Pins, np)
			}
			mustAdd(lib, ng)
		}
	}
	return lib
}

// Supergates extends a library with two-gate composites: for every
// ordered gate pair (outer, inner) and every input pin of the outer
// gate, a virtual cell computing outer(..., inner(...), ...) is added
// when its support stays within maxInputs. Pin delays compose along
// the path (inner pin + outer pin) scaled by discount, areas add, and
// duplicates (by positional function) are dropped — the classic SIS
// supergate trick, which manufactures exactly the wide complex gates
// that make DAG covering shine (Tables 2 vs 3).
//
// discount models the transistor-level merging of a real composite
// cell: 1.0 keeps delays purely additive (the composite is then never
// better than chaining the two gates, only a packaging convenience);
// a value like 0.85 reflects that a merged complex cell saves a stage
// of output swing, which is how lib2 prices its own AOI cells.
func Supergates(base *genlib.Library, maxInputs int, discount float64) *genlib.Library {
	if discount <= 0 {
		discount = 1
	}
	lib := genlib.NewLibrary(base.Name + "+super")
	seen := map[string]bool{}
	addGate := func(g *genlib.Gate) {
		key := g.FunctionKey()
		if seen[key] {
			return
		}
		// Skip rather than panic on pathological pin-name collisions
		// from exotic user libraries.
		if err := lib.Add(g); err != nil {
			return
		}
		seen[key] = true
	}
	for _, g := range base.Gates {
		if g.NumInputs() == 0 {
			continue
		}
		// Copy the base gate, so the expansion shares no gate with base.
		cp := &genlib.Gate{Name: g.Name, Area: g.Area, Output: g.Output,
			Expr: g.Expr.Clone(), Pins: append([]genlib.Pin(nil), g.Pins...)}
		addGate(cp)
	}
	isIdentity := func(g *genlib.Gate) bool {
		return g.NumInputs() == 1 && g.Expr.Op == logic.OpVar
	}
	for _, outer := range base.Gates {
		if outer.NumInputs() == 0 || isIdentity(outer) {
			continue
		}
		for _, inner := range base.Gates {
			if inner.NumInputs() == 0 || isIdentity(inner) {
				continue
			}
			for pi, pin := range outer.Pins {
				if outer.NumInputs()-1+inner.NumInputs() > maxInputs {
					continue
				}
				sg := composeGates(outer, inner, pi, discount)
				if sg != nil {
					_ = pin
					addGate(sg)
				}
			}
		}
	}
	return lib
}

// composeGates builds outer with input pin pi driven by inner.
func composeGates(outer, inner *genlib.Gate, pi int, discount float64) *genlib.Gate {
	name := fmt.Sprintf("%s@%s=%s", outer.Name, outer.Pins[pi].Name, inner.Name)
	g := &genlib.Gate{Name: name, Area: outer.Area + inner.Area, Output: outer.Output}
	// Rename pins positionally: outer pins keep o<i>, inner pins i<j>.
	outerRen := map[string]string{}
	var pins []genlib.Pin
	for i, p := range outer.Pins {
		if i == pi {
			continue
		}
		np := p
		np.Name = fmt.Sprintf("o%d", i)
		outerRen[p.Name] = np.Name
		pins = append(pins, np)
	}
	outerPinDelayRise := outer.Pins[pi].RiseBlock
	outerPinDelayFall := outer.Pins[pi].FallBlock
	innerRen := map[string]string{}
	for j, p := range inner.Pins {
		np := p
		np.Name = fmt.Sprintf("i%d", j)
		np.RiseBlock = (p.RiseBlock + outerPinDelayRise) * discount
		np.FallBlock = (p.FallBlock + outerPinDelayFall) * discount
		innerRen[p.Name] = np.Name
		pins = append(pins, np)
	}
	innerExpr := inner.Expr.Rename(innerRen)
	expr := logic.Substitute(outer.Expr.Rename(outerRen), outer.Pins[pi].Name, innerExpr)
	g.Expr = expr
	// Keep only pins the composed function actually uses (the outer
	// rename leaves the substituted pin name untouched in outerRen, so
	// re-filter defensively).
	used := map[string]bool{}
	for _, v := range expr.Vars() {
		used[v] = true
	}
	var kept []genlib.Pin
	for _, p := range pins {
		if used[p.Name] {
			kept = append(kept, p)
		}
	}
	if len(kept) != len(expr.Vars()) {
		return nil // degenerate composition
	}
	names := map[string]bool{}
	for _, p := range kept {
		if names[p.Name] {
			return nil
		}
		names[p.Name] = true
	}
	g.Pins = kept
	return g
}
