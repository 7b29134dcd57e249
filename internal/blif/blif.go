// Package blif reads and writes Boolean networks in the Berkeley Logic
// Interchange Format (BLIF).
//
// Supported constructs: .model, .inputs, .outputs, .names (PLA-style
// single-output covers), .latch (edge-triggered, initial value), .gate
// (library cells, via an optional GateResolver), .end, comments (#)
// and line continuations (\). Unsupported timing directives such as
// .default_input_arrival are skipped with no error.
package blif

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// GateResolver resolves a .gate cell name to its single-output logic
// function and the ordered formal pin names of that function. It is
// typically a genlib library.
type GateResolver interface {
	GateFunc(name string) (fn *logic.Expr, formals []string, ok bool)
}

// Reader parses BLIF input.
type Reader struct {
	// Gates resolves .gate constructs; if nil, .gate is an error.
	Gates GateResolver
	// ASTOrder makes ReadSubject return exactly the graph Parse +
	// subject.FromNetwork builds, node numbering included. Streaming
	// numbers nodes in declaration order, the AST reader in
	// network.TopoSort's order; the two agree on most BLIF as Write
	// emits it. With ASTOrder set, StreamSubject fails with ErrNeedsAST
	// at the first declaration where they would disagree, and
	// ReadSubject streams the model again with its declarations in the
	// AST reader's order.
	ASTOrder bool
}

// Parse reads one BLIF model from r.
// nodeDecl is one logic-node declaration (.names or .gate) with the
// function expressed over its input signal names.
type nodeDecl struct {
	output string
	inputs []string
	fn     *logic.Expr
	ln     line
}

type latchDecl struct {
	in, out string
	init    bool
	ln      line
}

type subcktDecl struct {
	model string
	bind  map[string]string // formal -> actual
	ln    line
}

// protoModel is a parsed-but-unbuilt BLIF model.
type protoModel struct {
	name    string
	inputs  []string
	outputs []string
	nodes   []nodeDecl
	latches []latchDecl
	subckts []subcktDecl
	ln      line
}

// Parse reads a BLIF file. The first .model is the main model;
// further models may be instantiated through .subckt and are
// flattened into the result. Signals may be used before they are
// defined (forward references), as the BLIF format allows.
func (rd *Reader) Parse(r io.Reader) (*network.Network, error) {
	lines, err := logicalLines(r)
	if err != nil {
		return nil, err
	}
	protos, err := rd.parseModels(lines)
	if err != nil {
		return nil, err
	}
	if len(protos) == 0 {
		return nil, fmt.Errorf("blif: no model found")
	}
	byName := map[string]*protoModel{}
	for _, p := range protos {
		if _, dup := byName[p.name]; dup {
			return nil, p.ln.errorf("duplicate model %q", p.name)
		}
		byName[p.name] = p
	}
	main := protos[0]

	// Flatten the hierarchy into global declaration lists.
	var nodes []nodeDecl
	var latches []latchDecl
	instCtr := 0
	var instantiate func(p *protoModel, prefix string, bind map[string]string, stack []string) error
	instantiate = func(p *protoModel, prefix string, bind map[string]string, stack []string) error {
		for _, s := range stack {
			if s == p.name {
				return p.ln.errorf("recursive model instantiation of %q", p.name)
			}
		}
		stack = append(stack, p.name)
		resolve := func(s string) string {
			if a, ok := bind[s]; ok {
				return a
			}
			return prefix + s
		}
		for _, nd := range p.nodes {
			rn := nodeDecl{output: resolve(nd.output), ln: nd.ln}
			ren := map[string]string{}
			seen := map[string]bool{}
			for _, in := range nd.inputs {
				a := resolve(in)
				ren[in] = a
				if !seen[a] {
					seen[a] = true
					rn.inputs = append(rn.inputs, a)
				}
			}
			rn.fn = nd.fn.Rename(ren)
			nodes = append(nodes, rn)
		}
		for _, ld := range p.latches {
			latches = append(latches, latchDecl{
				in: resolve(ld.in), out: resolve(ld.out), init: ld.init, ln: ld.ln,
			})
		}
		for _, sc := range p.subckts {
			child, ok := byName[sc.model]
			if !ok {
				return sc.ln.errorf(".subckt references unknown model %q", sc.model)
			}
			formals := map[string]bool{}
			for _, in := range child.inputs {
				formals[in] = true
			}
			for _, out := range child.outputs {
				formals[out] = true
			}
			// Bindings are checked in pin-name order, so the error for
			// several bad pins names the same one on every run.
			pins := make([]string, 0, len(sc.bind))
			for formal := range sc.bind {
				pins = append(pins, formal)
			}
			sort.Strings(pins)
			childBind := map[string]string{}
			for _, formal := range pins {
				if !formals[formal] {
					return sc.ln.errorf(".subckt %s: %q is not an interface pin", sc.model, formal)
				}
				childBind[formal] = resolve(sc.bind[formal])
			}
			for _, in := range child.inputs {
				if _, ok := childBind[in]; !ok {
					return sc.ln.errorf(".subckt %s: input %q unbound", sc.model, in)
				}
			}
			instCtr++
			childPrefix := fmt.Sprintf("%s%s$%d/", prefix, sc.model, instCtr)
			if err := instantiate(child, childPrefix, childBind, stack); err != nil {
				return err
			}
		}
		return nil
	}
	if err := instantiate(main, "", map[string]string{}, nil); err != nil {
		return nil, err
	}

	// Build the network in dependency order.
	nw := network.New(main.name)
	for _, in := range main.inputs {
		if _, err := nw.AddInput(in); err != nil {
			return nil, fmt.Errorf("blif: %s", clipErr(err.Error()))
		}
	}
	for _, ld := range latches {
		if _, err := nw.AddLatchOutput(ld.out); err != nil {
			return nil, ld.ln.errorf("%v", err)
		}
	}
	driver := map[string]*nodeDecl{}
	for i := range nodes {
		nd := &nodes[i]
		if prev, dup := driver[nd.output]; dup {
			return nil, nd.ln.errorf("signal %q driven twice (also line %d)", nd.output, prev.ln.num)
		}
		if nw.Node(nd.output) != nil {
			return nil, nd.ln.errorf("signal %q collides with an input or latch output", nd.output)
		}
		driver[nd.output] = nd
	}
	state := map[string]int{} // 0 new, 1 visiting, 2 done
	var emit func(nd *nodeDecl) error
	emit = func(nd *nodeDecl) error {
		switch state[nd.output] {
		case 1:
			return nd.ln.errorf("combinational cycle through %q", nd.output)
		case 2:
			return nil
		}
		state[nd.output] = 1
		for _, in := range nd.inputs {
			if nw.Node(in) != nil {
				continue
			}
			d, ok := driver[in]
			if !ok {
				return nd.ln.errorf("signal %q is never defined", in)
			}
			if err := emit(d); err != nil {
				return err
			}
		}
		state[nd.output] = 2
		_, err := nw.AddNode(nd.output, nd.inputs, nd.fn)
		if err != nil {
			return nd.ln.errorf("%v", err)
		}
		return nil
	}
	for i := range nodes {
		if err := emit(&nodes[i]); err != nil {
			return nil, err
		}
	}
	for _, ld := range latches {
		if _, err := nw.ConnectLatch(ld.in, ld.out, ld.init); err != nil {
			return nil, ld.ln.errorf("%v", err)
		}
	}
	for _, o := range main.outputs {
		if err := nw.MarkOutput(o); err != nil {
			return nil, fmt.Errorf("blif: %s", clipErr(err.Error()))
		}
	}
	if len(nw.Outputs()) == 0 && len(nw.Latches()) == 0 {
		return nil, fmt.Errorf("blif: model %q declares no outputs and no latches", nw.Name)
	}
	return nw, nil
}

// parseModels splits the logical lines into proto models.
func (rd *Reader) parseModels(lines []line) ([]*protoModel, error) {
	var protos []*protoModel
	var cur *protoModel
	need := func(ln line) (*protoModel, error) {
		if cur == nil {
			cur = &protoModel{name: "top", ln: ln}
			protos = append(protos, cur)
		}
		return cur, nil
	}
	i := 0
	for i < len(lines) {
		ln := lines[i]
		fields := strings.Fields(ln.text)
		if len(fields) == 0 {
			i++
			continue
		}
		switch fields[0] {
		case ".model":
			name := "top"
			if len(fields) > 1 {
				name = fields[1]
			}
			cur = &protoModel{name: name, ln: ln}
			protos = append(protos, cur)
			i++
		case ".inputs":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			p.inputs = append(p.inputs, fields[1:]...)
			i++
		case ".outputs":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			p.outputs = append(p.outputs, fields[1:]...)
			i++
		case ".names":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, ln.errorf(".names needs at least an output")
			}
			inputs := fields[1 : len(fields)-1]
			output := fields[len(fields)-1]
			var cover []string
			i++
			for i < len(lines) && !strings.HasPrefix(strings.TrimSpace(lines[i].text), ".") {
				row := strings.TrimSpace(lines[i].text)
				if row != "" {
					cover = append(cover, row)
				}
				i++
			}
			fn, err := coverToExpr(inputs, cover)
			if err != nil {
				return nil, ln.errorf("%v", err)
			}
			p.nodes = append(p.nodes, nodeDecl{output: output, inputs: inputs, fn: fn, ln: ln})
		case ".latch":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			if len(fields) < 3 {
				return nil, ln.errorf(".latch needs input and output")
			}
			init := false
			if last := fields[len(fields)-1]; len(fields) > 3 {
				switch last {
				case "1":
					init = true
				case "0", "2", "3": // 2=don't care, 3=unknown: treat as 0
				default:
					// trailing token was a clock name; init defaults 0
				}
			}
			p.latches = append(p.latches, latchDecl{in: fields[1], out: fields[2], init: init, ln: ln})
			i++
		case ".gate":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			if rd.Gates == nil {
				return nil, ln.errorf(".gate requires a gate resolver (library)")
			}
			nd, err := rd.gateDecl(fields[1:], ln)
			if err != nil {
				return nil, err
			}
			p.nodes = append(p.nodes, nd)
			i++
		case ".subckt":
			p, err := need(ln)
			if err != nil {
				return nil, err
			}
			if len(fields) < 2 {
				return nil, ln.errorf(".subckt needs a model name")
			}
			bind := map[string]string{}
			for _, as := range fields[2:] {
				eq := strings.IndexByte(as, '=')
				if eq < 0 {
					return nil, ln.errorf(".subckt binding %q is not formal=actual", as)
				}
				bind[as[:eq]] = as[eq+1:]
			}
			p.subckts = append(p.subckts, subcktDecl{model: fields[1], bind: bind, ln: ln})
			i++
		case ".end":
			cur = nil
			i++
		case ".exdc":
			return nil, ln.errorf(".exdc networks are not supported")
		default:
			if strings.HasPrefix(fields[0], ".") {
				i++ // skip unsupported directives (timing etc.)
				continue
			}
			return nil, ln.errorf("unexpected token %q", fields[0])
		}
	}
	return protos, nil
}

// gateDecl resolves a .gate line into a node declaration.
func (rd *Reader) gateDecl(fields []string, ln line) (nodeDecl, error) {
	if len(fields) < 2 {
		return nodeDecl{}, ln.errorf(".gate needs a name and pin bindings")
	}
	gname := fields[0]
	fn, formals, ok := rd.Gates.GateFunc(gname)
	if !ok {
		return nodeDecl{}, ln.errorf(".gate references unknown gate %q", gname)
	}
	formalSet := map[string]bool{}
	for _, f := range formals {
		formalSet[f] = true
	}
	bind := map[string]string{}
	var outActual, outFormal string
	for _, as := range fields[1:] {
		eq := strings.IndexByte(as, '=')
		if eq < 0 {
			return nodeDecl{}, ln.errorf(".gate binding %q is not formal=actual", as)
		}
		formal, actual := as[:eq], as[eq+1:]
		if formalSet[formal] {
			bind[formal] = actual
			continue
		}
		if outActual != "" {
			return nodeDecl{}, ln.errorf(".gate %s has two output bindings (%s, %s)", gname, outFormal, formal)
		}
		outFormal, outActual = formal, actual
	}
	if outActual == "" {
		return nodeDecl{}, ln.errorf(".gate %s missing output binding", gname)
	}
	rename := map[string]string{}
	var inputs []string
	seen := map[string]bool{}
	for _, f := range formals {
		a, ok := bind[f]
		if !ok {
			return nodeDecl{}, ln.errorf(".gate %s missing binding for pin %s", gname, f)
		}
		rename[f] = a
		if !seen[a] {
			seen[a] = true
			inputs = append(inputs, a)
		}
	}
	return nodeDecl{output: outActual, inputs: inputs, fn: fn.Rename(rename), ln: ln}, nil
}

type line struct {
	num  int
	text string
}

// maxErrLen bounds the rendered message of any parse error. BLIF
// errors echo user-controlled tokens (signal names, cover rows), and
// a server returning them to clients must not relay an unbounded dump
// of the input; clipErr keeps the line number and a readable prefix.
const maxErrLen = 200

// clipErr truncates msg to maxErrLen bytes on a rune boundary.
func clipErr(msg string) string {
	if len(msg) <= maxErrLen {
		return msg
	}
	cut := maxErrLen
	for cut > 0 && !utf8.RuneStart(msg[cut]) {
		cut--
	}
	return msg[:cut] + "... (truncated)"
}

func (l line) errorf(format string, args ...any) error {
	return fmt.Errorf("blif: line %d: %s", l.num, clipErr(fmt.Sprintf(format, args...)))
}

// logicalLines collects the line scanner's output as strings; the AST
// parser needs random access for cover-row lookahead, the streaming
// subject reader (stream.go) consumes the scanner directly.
func logicalLines(r io.Reader) ([]line, error) {
	ls := newLineScanner(r)
	var out []line
	for {
		text, num, ok := ls.next()
		if !ok {
			break
		}
		out = append(out, line{num: num, text: string(text)})
	}
	if err := ls.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// coverToExpr converts a single-output PLA cover to an expression.
func coverToExpr(inputs []string, rows []string) (*logic.Expr, error) {
	var c cover
	c.reset(len(inputs))
	for _, row := range rows {
		c.add([]byte(row))
	}
	if c.err != nil {
		return nil, c.err
	}
	if len(inputs) == 0 {
		return logic.Constant(c.one), nil
	}
	cubes := make([]*logic.Expr, 0, c.rows)
	for r := 0; r < c.rows; r++ {
		var lits []*logic.Expr
		for ci, ch := range c.row(r) {
			switch ch {
			case '1':
				lits = append(lits, logic.Variable(inputs[ci]))
			case '0':
				lits = append(lits, logic.Not(logic.Variable(inputs[ci])))
			}
		}
		cubes = append(cubes, logic.And(lits...))
	}
	fn := logic.Or(cubes...)
	if !c.on {
		fn = logic.Not(fn)
	}
	return fn, nil
}

// Write renders the network as BLIF using .names for every internal
// node. Node functions are emitted as sum-of-products covers. All
// text goes through one reused buffer, written out in chunks.
func Write(w io.Writer, nw *network.Network) error {
	cw := &coverWriter{nw: nw, fresh: map[string]bool{}}
	b := append(cw.buf, ".model "...)
	b = append(b, nw.Name...)
	b = append(b, "\n.inputs"...)
	for _, in := range nw.Inputs() {
		b = append(append(b, ' '), in.Name...)
	}
	b = append(b, "\n.outputs"...)
	for _, o := range nw.Outputs() {
		b = append(append(b, ' '), o.Name...)
	}
	b = append(b, '\n')
	for _, l := range nw.Latches() {
		b = append(append(b, ".latch "...), l.Input.Name...)
		b = append(append(b, ' '), l.Output.Name...)
		if l.Init {
			b = append(b, " 1\n"...)
		} else {
			b = append(b, " 0\n"...)
		}
	}
	cw.buf = b
	topo, err := nw.TopoSort()
	if err != nil {
		return fmt.Errorf("blif: %v", err)
	}
	var fanins []string
	for _, n := range topo {
		if n.Func == nil {
			continue
		}
		fanins = fanins[:0]
		for _, fi := range n.Fanins {
			fanins = append(fanins, fi.Name)
		}
		cw.base, cw.seq = n.Name, 0
		if err := cw.names(n.Name, n.Func, fanins); err != nil {
			return err
		}
		if len(cw.buf) >= writeChunk {
			if _, err := w.Write(cw.buf); err != nil {
				return err
			}
			cw.buf = cw.buf[:0]
		}
	}
	cw.buf = append(cw.buf, ".end\n"...)
	_, err = w.Write(cw.buf)
	return err
}

// writeChunk is the buffered text at which Write hands it to the writer.
const writeChunk = 32 << 10

// coverWriter renders node functions as .names covers. A function
// that neither phase can expand within the cube limit (a wide XOR, say)
// is split into fresh intermediate nodes, written ahead of the node
// that reads them; a function that expands is always one cover.
type coverWriter struct {
	nw    *network.Network
	buf   []byte          // rendered text not yet written
	fresh map[string]bool // intermediate names handed out so far
	base  string          // the network node being written
	seq   int             // its last intermediate suffix
	dnf   dnfMemo         // cube expansion scratch, reused by every node
}

func (cw *coverWriter) names(name string, fn *logic.Expr, fanins []string) error {
	cubes, onPhase, err := cw.dnf.exprCover(fn, fanins)
	if err != nil {
		return fmt.Errorf("blif: node %q: %v", cw.base, err)
	}
	if !cubes.ok {
		return cw.split(name, fn, fanins)
	}
	b := append(cw.buf, ".names "...)
	for i, f := range fanins {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, f...)
	}
	b = append(append(append(b, ' '), name...), '\n')
	outCol := byte('1')
	if !onPhase {
		outCol = '0'
	}
	cw.buf = cw.dnf.appendRows(b, outCol)
	return nil
}

// split writes fn's top operator over its two operand halves: each
// half that is not a literal becomes a fresh intermediate node (split
// again if it is still too wide), and name is written over those.
func (cw *coverWriter) split(name string, fn *logic.Expr, fanins []string) error {
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
		if isLiteral(e) {
			kids = append(kids, e)
			continue
		}
		sub := usedFanins(e, fanins)
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
	rootFanins := usedFanins(root, fanins)
	for _, k := range kids {
		if k.Op == logic.OpVar && cw.fresh[k.Var] {
			rootFanins = append(rootFanins, k.Var)
		}
	}
	return cw.names(name, root, rootFanins)
}

// freshName returns an unused intermediate name derived from the node
// being written: base$1, base$2, ..., skipping names the network uses.
func (cw *coverWriter) freshName() string {
	for {
		cw.seq++
		name := cw.base + "$" + strconv.Itoa(cw.seq)
		if cw.nw.Node(name) == nil && !cw.fresh[name] {
			cw.fresh[name] = true
			return name
		}
	}
}

func isLiteral(e *logic.Expr) bool {
	return e.Op == logic.OpVar || e.Op == logic.OpNot && e.Kids[0].Op == logic.OpVar
}

// usedFanins returns the fanins e reads, in fanin order.
func usedFanins(e *logic.Expr, fanins []string) []string {
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

// cubeLimit is the most cubes one cover, or any list on the way to it,
// may hold.
const cubeLimit = 4096

// dnfMemo expands node functions into cube lists over one node's
// fanins. A cube is 2w words, w = max(1, ⌈fanins/64⌉), so one layout
// serves every width: w care words, then w value words, with fanin j
// at bit j%64 of word j/64 of each half. A care bit marks a literal;
// its value bit (set only under a care bit) is the literal's phase.
// Every list of one expansion lives in one arena, and the memo maps
// (expression, phase) to its list. The arena, the memo and the sort
// order are reset, not reallocated, for each expansion, so one
// dnfMemo serves every node a Write renders.
type dnfMemo struct {
	inputs  []string // the fanins: column j of a row is inputs[j]
	words   int      // w, the words in each half of a cube
	arena   []uint64
	memo    map[dnfKey]dnfList
	pending []dnfList // operand lists of the ORs being expanded
	order   []int     // arena offsets of the cover's cubes, in row order
	budget  int       // cube pairs the expansion may still examine
	missing string    // a variable the expansion found outside inputs
}

type dnfKey struct {
	e   *logic.Expr
	neg bool
}

// dnfList is the n cubes at arena[off:], or a failed expansion
// (ok=false). Lists are never modified once made, so lists may share
// cubes and the memo may hand one list out many times.
type dnfList struct {
	off, n int
	ok     bool
}

// exprCover returns a single-phase cover of fn over the ordered fanin
// list as bitmask cubes in row order (the same path at any fanin
// count), with ok=false when neither phase expands within the cube
// limit and the work budget. It fails when fn reads a variable that
// is not a fanin.
func (m *dnfMemo) exprCover(fn *logic.Expr, inputs []string) (cubes dnfList, onPhase bool, err error) {
	m.inputs, m.words = inputs, max(1, (len(inputs)+63)/64)
	cubes, onPhase = m.toDNF(fn, cubeLimit), true
	if !cubes.ok && m.missing == "" {
		// Fall back to the complement: useful for wide XOR-like
		// functions whose off-set is smaller.
		cubes, onPhase = m.toDNF(logic.Not(fn), cubeLimit), false
	}
	if m.missing != "" {
		return dnfList{}, false, fmt.Errorf("function reads %q, which is not one of its fanins", m.missing)
	}
	if cubes.ok {
		m.sortRows(cubes)
	}
	return cubes, onPhase, nil
}

// sortRows fills m.order with the list's cubes in the order of their
// rendered rows: by the first column where two cubes differ, with
// '-' < '0' < '1'. Equal cubes render equally, so any order among them
// gives the same text.
func (m *dnfMemo) sortRows(l dnfList) {
	w, stride := m.words, 2*m.words
	m.order = m.order[:0]
	for i := 0; i < l.n; i++ {
		m.order = append(m.order, l.off+i*stride)
	}
	a := m.arena
	slices.SortFunc(m.order, func(x, y int) int {
		for i := 0; i < w; i++ {
			cx, cy, vx, vy := a[x+i], a[y+i], a[x+w+i], a[y+w+i]
			if d := (cx ^ cy) | (vx ^ vy); d != 0 {
				bit := d & -d
				return colRank(cx&bit, vx&bit) - colRank(cy&bit, vy&bit)
			}
		}
		return 0
	})
}

// colRank orders a column's characters: '-' (no care bit), '0', '1'.
func colRank(care, val uint64) int {
	switch {
	case care == 0:
		return 0
	case val == 0:
		return 1
	}
	return 2
}

// appendRows renders the cover sortRows ordered, one
// "<columns> <outCol>" row per cube.
func (m *dnfMemo) appendRows(b []byte, outCol byte) []byte {
	w := m.words
	for _, off := range m.order {
		care, val := m.arena[off:off+w], m.arena[off+w:off+2*w]
		for j := range m.inputs {
			bit := uint64(1) << (j & 63)
			switch {
			case care[j>>6]&bit == 0:
				b = append(b, '-')
			case val[j>>6]&bit != 0:
				b = append(b, '1')
			default:
				b = append(b, '0')
			}
		}
		b = append(b, ' ', outCol, '\n')
	}
	return b
}

// toDNF expands fn into a list of cubes, giving up (ok=false) past the
// limit or the work budget. The expansion works on a negation-normal
// form computed on the fly. AND, OR and XOR results are memoized by
// (node pointer, phase): XOR expansion builds a DAG whose operands are
// shared between both phases, and a plain tree walk over it is
// exponential even when the cube limit fails it early. Each call, so
// each phase, starts from an empty arena and memo and a full budget;
// any failure ends the call.
func (m *dnfMemo) toDNF(fn *logic.Expr, limit int) dnfList {
	if m.memo == nil || len(m.memo) > 256 {
		// Clearing a map costs its capacity: drop one that grew large.
		m.memo = map[dnfKey]dnfList{}
	} else {
		clear(m.memo)
	}
	m.arena, m.pending = m.arena[:0], m.pending[:0]
	m.budget, m.missing = dnfWorkBudget, ""
	return m.dnf(fn, false, limit)
}

// dnfWorkBudget caps the total number of cube pairs one toDNF call may
// examine. It is charged with a product's full pair count before the
// product runs. The cube limit alone bounds only the surviving cubes:
// a product of two near-limit lists whose pairs are mostly
// contradictory (parity-like functions) examines limit² pairs while
// its output stays small, which is seconds of work per node. The
// budget turns that into a fast, deterministic failure.
const dnfWorkBudget = 1 << 21

func (m *dnfMemo) dnf(e *logic.Expr, neg bool, limit int) dnfList {
	switch e.Op {
	case logic.OpConst:
		if e.Const != neg {
			return m.tautology()
		}
		return dnfList{off: len(m.arena), ok: true}
	case logic.OpVar:
		return m.literal(e.Var, !neg)
	case logic.OpNot:
		return m.dnf(e.Kids[0], !neg, limit)
	}
	key := dnfKey{e, neg}
	if l, hit := m.memo[key]; hit {
		return l
	}
	l := m.expand(e, neg, limit)
	m.memo[key] = l
	return l
}

func (m *dnfMemo) expand(e *logic.Expr, neg bool, limit int) dnfList {
	switch e.Op {
	case logic.OpAnd, logic.OpOr:
		if (e.Op == logic.OpAnd) != neg { // De Morgan under negation
			return m.and(e.Kids, neg, limit)
		}
		return m.or(e.Kids, neg, limit)
	case logic.OpXor:
		// XOR(a, rest...) = a*!XOR(rest) + !a*XOR(rest); under
		// negation flip once at the top.
		return m.dnf(expandXor(e.Kids, neg), false, limit)
	}
	return dnfList{}
}

// tautology returns a list of one cube with no literals.
func (m *dnfMemo) tautology() dnfList {
	return dnfList{off: m.grow(), n: 1, ok: true}
}

// literal returns the one-cube list of variable v in the given phase;
// v's column is its last position among the fanins.
func (m *dnfMemo) literal(v string, phase bool) dnfList {
	col := len(m.inputs) - 1
	for col >= 0 && m.inputs[col] != v {
		col--
	}
	if col < 0 {
		m.missing = v
		return dnfList{}
	}
	off, bit := m.grow(), uint64(1)<<(col&63)
	m.arena[off+col>>6] = bit
	if phase {
		m.arena[off+m.words+col>>6] = bit
	}
	return dnfList{off: off, n: 1, ok: true}
}

// grow appends one all-zero cube to the arena and returns its offset.
func (m *dnfMemo) grow() int {
	off := len(m.arena)
	for i := 0; i < 2*m.words; i++ {
		m.arena = append(m.arena, 0)
	}
	return off
}

// and multiplies the operands' lists left to right. The first product
// is with the tautology cube, which leaves the operand's list as it is;
// its pairs are charged all the same.
func (m *dnfMemo) and(kids []*logic.Expr, neg bool, limit int) dnfList {
	if len(kids) == 0 {
		return m.tautology()
	}
	var acc dnfList
	for i, k := range kids {
		kd := m.dnf(k, neg, limit)
		if !kd.ok {
			return kd
		}
		if i == 0 {
			if m.budget -= kd.n; m.budget < 0 {
				return dnfList{}
			}
			acc = kd
			continue
		}
		if acc = m.product(acc, kd, limit); !acc.ok {
			return acc
		}
	}
	return acc
}

// or concatenates the operands' lists, giving up once they hold more
// than limit cubes. A list with one non-empty operand is that operand.
func (m *dnfMemo) or(kids []*logic.Expr, neg bool, limit int) dnfList {
	base, total := len(m.pending), 0
	defer func() { m.pending = m.pending[:base] }()
	for _, k := range kids {
		kd := m.dnf(k, neg, limit)
		if !kd.ok {
			return kd
		}
		if total += kd.n; total > limit {
			return dnfList{}
		}
		if kd.n > 0 {
			m.pending = append(m.pending, kd)
		}
	}
	parts := m.pending[base:]
	if len(parts) == 1 {
		return parts[0]
	}
	stride := 2 * m.words
	out := dnfList{off: len(m.arena), n: total, ok: true}
	for _, p := range parts {
		m.arena = append(m.arena, m.arena[p.off:p.off+p.n*stride]...)
	}
	return out
}

// expandXor rewrites an XOR (or XNOR when neg) into AND/OR/NOT form.
func expandXor(kids []*logic.Expr, neg bool) *logic.Expr {
	cur := kids[0]
	for _, k := range kids[1:] {
		cur = logic.Or(logic.And(cur, logic.Not(k)), logic.And(logic.Not(cur), k))
	}
	if neg {
		cur = logic.Not(cur)
	}
	return cur
}

// product multiplies two cube lists, dropping contradictory pairs: a
// pair is contradictory when some word has a care bit in both cubes
// whose value bits differ. It charges the budget with every pair
// before it looks at one, and gives up (ok=false) when that overdraws
// the budget or as soon as the result would exceed limit — the
// product of two in-limit lists can be limit² cubes, far too many to
// materialize before checking.
func (m *dnfMemo) product(a, b dnfList, limit int) dnfList {
	m.budget -= a.n * b.n
	if m.budget < 0 {
		return dnfList{}
	}
	w, stride := m.words, 2*m.words
	as := m.arena[a.off : a.off+a.n*stride]
	bs := m.arena[b.off : b.off+b.n*stride]
	out := dnfList{off: len(m.arena), ok: true}
	for i := 0; i < len(as); i += stride {
		ca := as[i : i+stride]
	pairs:
		for j := 0; j < len(bs); j += stride {
			cb := bs[j : j+stride]
			for x := 0; x < w; x++ {
				if ca[x]&cb[x]&(ca[w+x]^cb[w+x]) != 0 {
					continue pairs
				}
			}
			if out.n >= limit {
				return dnfList{}
			}
			for x := range ca {
				m.arena = append(m.arena, ca[x]|cb[x])
			}
			out.n++
		}
	}
	return out
}

// ParseString parses BLIF text without a gate resolver.
func ParseString(s string) (*network.Network, error) {
	return (&Reader{}).Parse(strings.NewReader(s))
}
