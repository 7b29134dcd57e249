package blif

// The map-cube BLIF writer as it stood before covers moved to bitmask
// cubes, kept verbatim (identifiers renamed) as the test-only reference
// the differential tests hold Write to byte for byte. Each cube is a
// map from variable name to phase; products merge maps.

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// referenceWrite renders the network as BLIF using .names for every internal
// node. Node functions are emitted as sum-of-products covers.
func referenceWrite(w io.Writer, nw *network.Network) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, ".model %s\n", nw.Name)
	fmt.Fprintf(bw, ".inputs")
	for _, in := range nw.Inputs() {
		fmt.Fprintf(bw, " %s", in.Name)
	}
	fmt.Fprintln(bw)
	fmt.Fprintf(bw, ".outputs")
	for _, o := range nw.Outputs() {
		fmt.Fprintf(bw, " %s", o.Name)
	}
	fmt.Fprintln(bw)
	for _, l := range nw.Latches() {
		init := 0
		if l.Init {
			init = 1
		}
		fmt.Fprintf(bw, ".latch %s %s %d\n", l.Input.Name, l.Output.Name, init)
	}
	topo, err := nw.TopoSort()
	if err != nil {
		return fmt.Errorf("blif: %v", err)
	}
	cw := &refCoverWriter{w: bw, nw: nw, fresh: map[string]bool{}}
	for _, n := range topo {
		if n.Func == nil {
			continue
		}
		names := make([]string, len(n.Fanins))
		for i, fi := range n.Fanins {
			names[i] = fi.Name
		}
		cw.base, cw.seq = n.Name, 0
		if err := cw.names(n.Name, n.Func, names); err != nil {
			return err
		}
	}
	fmt.Fprintln(bw, ".end")
	return bw.Flush()
}

// refCoverWriter renders node functions as .names covers. A function
// that neither phase can expand within the cube limit (a wide XOR, say)
// is split into fresh intermediate nodes, written ahead of the node
// that reads them; a function that expands is always one cover.
type refCoverWriter struct {
	w     io.Writer
	nw    *network.Network
	fresh map[string]bool // intermediate names handed out so far
	base  string          // the network node being written
	seq   int             // its last intermediate suffix
}

func (cw *refCoverWriter) names(name string, fn *logic.Expr, fanins []string) error {
	cubes, onPhase, ok := refExprCover(fn, fanins)
	if !ok {
		return cw.split(name, fn, fanins)
	}
	fmt.Fprintf(cw.w, ".names %s %s\n", strings.Join(fanins, " "), name)
	outCol := "1"
	if !onPhase {
		outCol = "0"
	}
	for _, c := range cubes {
		fmt.Fprintf(cw.w, "%s %s\n", c, outCol)
	}
	return nil
}

// split writes fn's top operator over its two operand halves: each
// half that is not a literal becomes a fresh intermediate node (split
// again if it is still too wide), and name is written over those.
func (cw *refCoverWriter) split(name string, fn *logic.Expr, fanins []string) error {
	top := fn
	if top.Op == logic.OpNot {
		top = top.Kids[0]
	}
	if len(top.Kids) < 2 {
		return fmt.Errorf("blif: node %q: function too complex to expand into a cover", cw.base)
	}
	mid := len(top.Kids) / 2
	var kids []*logic.Expr
	for _, half := range [][]*logic.Expr{top.Kids[:mid], top.Kids[mid:]} {
		e := half[0]
		if len(half) > 1 {
			e = &logic.Expr{Op: top.Op, Kids: half}
		}
		if refIsLiteral(e) {
			kids = append(kids, e)
			continue
		}
		sub := refUsedFanins(e, fanins)
		fresh := cw.freshName()
		if err := cw.names(fresh, e, sub); err != nil {
			return err
		}
		kids = append(kids, logic.Variable(fresh))
	}
	root := &logic.Expr{Op: top.Op, Kids: kids}
	if top != fn {
		root = logic.Not(root)
	}
	rootFanins := refUsedFanins(root, fanins)
	for _, k := range kids {
		if k.Op == logic.OpVar && cw.fresh[k.Var] {
			rootFanins = append(rootFanins, k.Var)
		}
	}
	return cw.names(name, root, rootFanins)
}

// freshName returns an unused intermediate name derived from the node
// being written: base$1, base$2, ..., skipping names the network uses.
func (cw *refCoverWriter) freshName() string {
	for {
		cw.seq++
		name := cw.base + "$" + strconv.Itoa(cw.seq)
		if cw.nw.Node(name) == nil && !cw.fresh[name] {
			cw.fresh[name] = true
			return name
		}
	}
}

func refIsLiteral(e *logic.Expr) bool {
	return e.Op == logic.OpVar || e.Op == logic.OpNot && e.Kids[0].Op == logic.OpVar
}

// refUsedFanins returns the fanins e reads, in fanin order.
func refUsedFanins(e *logic.Expr, fanins []string) []string {
	vars := map[string]bool{}
	for _, v := range e.Vars() {
		vars[v] = true
	}
	var out []string
	for _, f := range fanins {
		if vars[f] {
			out = append(out, f)
			delete(vars, f)
		}
	}
	return out
}

// refExprCover returns a single-phase cube cover of fn over the ordered
// fanin list, or ok=false when neither phase expands within the cube
// limit.
func refExprCover(fn *logic.Expr, inputs []string) (cubes []string, onPhase, ok bool) {
	idx := map[string]int{}
	for i, in := range inputs {
		idx[in] = i
	}
	dnf, ok := refToDNF(fn, 4096)
	if !ok {
		// Fall back to the complement: useful for wide XOR-like
		// functions whose off-set is smaller.
		dnf, ok = refToDNF(logic.Not(fn), 4096)
		if !ok {
			return nil, false, false
		}
		return refCubeStrings(dnf, idx, len(inputs)), false, true
	}
	return refCubeStrings(dnf, idx, len(inputs)), true, true
}

// refCube maps variable name -> required phase.
type refCube map[string]bool

func refCubeStrings(cs []refCube, idx map[string]int, width int) []string {
	if len(cs) == 0 {
		// Empty DNF = constant 0: represent as an off-phase row "all
		// don't-care -> 0"? BLIF encodes constants with no rows; the
		// caller handles constants before this point in practice.
		return nil
	}
	out := make([]string, len(cs))
	for i, c := range cs {
		row := make([]byte, width)
		for j := range row {
			row[j] = '-'
		}
		for v, ph := range c {
			if ph {
				row[idx[v]] = '1'
			} else {
				row[idx[v]] = '0'
			}
		}
		out[i] = string(row)
	}
	sort.Strings(out)
	return out
}

// refToDNF expands fn into a set of cubes, giving up (ok=false) past the
// limit. The expansion works on a negation-normal form computed on the
// fly. Results are memoized by (node pointer, phase): XOR expansion
// builds a DAG whose operands are shared between both phases, and a
// plain tree walk over it is exponential even when the cube limit
// fails it early.
func refToDNF(fn *logic.Expr, limit int) ([]refCube, bool) {
	m := &refDNFMemo{memo: map[refDNFKey]refDNFVal{}, budget: refDNFWorkBudget}
	return m.dnf(fn, false, limit)
}

// refDNFWorkBudget caps the total number of cube pairs one refToDNF call may
// examine. The cube limit alone bounds only the surviving cubes: a
// product of two near-limit sets whose pairs are mostly contradictory
// (parity-like functions) examines limit² pairs while its output stays
// small, which is seconds of map churn per node. The budget turns that
// into a fast, deterministic failure.
const refDNFWorkBudget = 1 << 21

type refDNFKey struct {
	e   *logic.Expr
	neg bool
}

type refDNFVal struct {
	cubes []refCube
	ok    bool
}

type refDNFMemo struct {
	memo   map[refDNFKey]refDNFVal
	budget int
}

func (m *refDNFMemo) dnf(e *logic.Expr, neg bool, limit int) ([]refCube, bool) {
	key := refDNFKey{e, neg}
	if v, hit := m.memo[key]; hit {
		return v.cubes, v.ok
	}
	cubes, ok := m.expand(e, neg, limit)
	m.memo[key] = refDNFVal{cubes, ok}
	return cubes, ok
}

func (m *refDNFMemo) expand(e *logic.Expr, neg bool, limit int) ([]refCube, bool) {
	switch e.Op {
	case logic.OpConst:
		v := e.Const != neg
		if v {
			return []refCube{{}}, true // tautology cube
		}
		return nil, true
	case logic.OpVar:
		return []refCube{{e.Var: !neg}}, true
	case logic.OpNot:
		return m.dnf(e.Kids[0], !neg, limit)
	case logic.OpAnd, logic.OpOr:
		isAnd := (e.Op == logic.OpAnd) != neg // De Morgan under negation
		var acc []refCube
		if isAnd {
			acc = []refCube{{}}
			for _, k := range e.Kids {
				kd, ok := m.dnf(k, neg, limit)
				if !ok {
					return nil, false
				}
				acc, ok = m.refCubeProduct(acc, kd, limit)
				if !ok {
					return nil, false
				}
			}
			return acc, true
		}
		for _, k := range e.Kids {
			kd, ok := m.dnf(k, neg, limit)
			if !ok {
				return nil, false
			}
			acc = append(acc, kd...)
			if len(acc) > limit {
				return nil, false
			}
		}
		return acc, true
	case logic.OpXor:
		// XOR(a, rest...) = a*!XOR(rest) + !a*XOR(rest); under
		// negation flip once at the top.
		expanded := refExpandXor(e.Kids, neg)
		return m.dnf(expanded, false, limit)
	}
	return nil, false
}

// refExpandXor rewrites an XOR (or XNOR when neg) into AND/OR/NOT form.
func refExpandXor(kids []*logic.Expr, neg bool) *logic.Expr {
	cur := kids[0]
	for _, k := range kids[1:] {
		cur = logic.Or(logic.And(cur, logic.Not(k)), logic.And(logic.Not(cur), k))
	}
	if neg {
		cur = logic.Not(cur)
	}
	return cur
}

// refCubeProduct multiplies two cube sets, dropping contradictory
// products. It gives up (ok=false) as soon as the result exceeds
// limit — the product of two in-limit sets can be limit² cubes, far
// too many to materialize before checking — or when the pair count
// would blow the call-wide work budget.
func (m *refDNFMemo) refCubeProduct(a, b []refCube, limit int) (out []refCube, ok bool) {
	m.budget -= len(a) * len(b)
	if m.budget < 0 {
		return nil, false
	}
	for _, ca := range a {
		for _, cb := range b {
			// Lookup-only compatibility check first: most pairs of a
			// large product are contradictory, and allocating a merged
			// map per pair before checking is the dominant cost.
			compatible := true
			for v, ph := range ca {
				if oph, exists := cb[v]; exists && oph != ph {
					compatible = false
					break
				}
			}
			if !compatible {
				continue
			}
			if len(out) >= limit {
				return nil, false
			}
			prod := make(refCube, len(ca)+len(cb))
			for v, ph := range ca {
				prod[v] = ph
			}
			for v, ph := range cb {
				prod[v] = ph
			}
			out = append(out, prod)
		}
	}
	return out, true
}
