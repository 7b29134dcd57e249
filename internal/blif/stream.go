// Streaming BLIF ingest: a line-at-a-time reader that folds flat
// models straight into a subject graph without materializing the
// logical-line list or the proto-model AST. This is the path the
// million-gate benchmark families take — a network.Network of several
// million nodes costs an order of magnitude more memory than the
// subject graph it decomposes into, so the big families never build
// one.
//
// The streaming path handles the single-model combinational subset of
// BLIF (.model/.inputs/.outputs/.names/.gate/.end, comments,
// continuations) with declarations in topological order. Anything
// outside that subset — .subckt hierarchies, .latch, multiple models,
// forward references — makes StreamSubject return ErrNeedsAST, and
// ReadSubject transparently re-reads the input through the full
// parser. With Reader.ASTOrder, a model that is only declared out of
// the full parser's order is streamed again in that order instead.
package blif

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"

	"dagcover/internal/logic"
	"dagcover/internal/subject"
)

// ErrNeedsAST reports that the model uses BLIF constructs outside the
// streaming subset (hierarchy, latches, several models, or forward
// references) and must go through the full AST parser.
var ErrNeedsAST = errors.New("blif: model needs the AST reader")

// errMisordered is the part of StreamSubject's ASTOrder failure that
// ReadSubject can repair by reordering the declarations.
var errMisordered = errors.New("declaration order differs from the AST reader's")

// signal is what a name stands for while streaming: a subject node, or
// a constant folded away before decomposition. It is kept to 8 bytes:
// the signal table holds one per name of a million-gate model.
type signal struct {
	node subject.Node // or constFalse / constTrue
	rank uint32       // position in the AST reader's visit order (see rankOf)
}

const (
	constFalse = subject.None - 1 - iota
	constTrue
)

func constSignal(v bool) signal {
	if v {
		return signal{node: constTrue}
	}
	return signal{node: constFalse}
}

// konst reports whether the signal is a constant, and val its value.
func (sig signal) konst() bool { return sig.node < subject.None }
func (sig signal) val() bool   { return sig.node == constTrue }

// Signal ranks encode where subject.FromNetwork visits a signal when
// the AST reader builds the same model: network.TopoSort is Kahn's
// algorithm over PIs, then declarations, so the primary inputs come
// first, then the fanin-free declarations (constants), and every other
// declaration is queued when its last fanin is visited, ties broken by
// declaration order. A rank is the class in the top two bits and the
// ordinal within the class in the low 30 (see ordinal).
const (
	rankPI = iota << 30
	rankConst
	rankDecl
)

// streamer is the state of one StreamSubject call. A .names
// declaration is pending while its cover rows stream in: its fanins
// are resolved when the .names line is read, its rows are validated
// into cov, and the node is built when the next directive flushes it.
type streamer struct {
	g       *subject.Graph
	sigs    map[string]signal
	outputs []string
	fields  [][]byte

	pending bool
	out     string   // the pending declaration's output
	num     int      // its line number
	fanins  []signal // its resolved fanins
	undef   string   // its first fanin not defined yet
	cov     cover
	lits    []subject.Lit
	ends    []int

	env map[string]subject.Node // .gate decomposition

	// AST-order bookkeeping (see rankOf): per-class ordinals, the
	// visiting fanin rank of the last declaration, and the line of the
	// first declaration that builds nodes out of the AST reader's
	// order (0 while none has).
	npi, nconst, ndecl uint32
	lastVisit          uint32
	sawDecl            bool
	misorder           int
}

// StreamSubject reads one flat BLIF model from r and technology-
// decomposes it into a subject graph on the fly, one declaration at a
// time. The result is structurally identical to
// Parse + subject.FromNetwork (same node/strash counts, same PI order,
// same output bindings); only the internal node numbering may differ,
// because the AST path renumbers through a topological sort.
//
// A .names declaration goes from input bytes to subject nodes without
// an expression tree: its rows are validated into a reused column
// buffer, constant fanins are folded in the cube domain, and
// subject.BuildSOP decomposes the rest exactly as Build would
// decompose the cover's expression.
//
// Models outside the streaming subset return ErrNeedsAST (wrapped);
// use ReadSubject for transparent fallback. With ASTOrder set, so does
// a model whose node numbering would differ from the AST reader's, at
// the first declaration that shows it: the streamed numbering equals
// the AST reader's when the model declares its primary inputs before
// any logic and every declaration's last-visited fanin comes no
// earlier, in the AST reader's visit order, than the previous
// declaration's. Then Kahn's order over the declarations is their file
// order, both readers decompose the same expressions in the same
// order, and the graphs are equal node for node (and digest equal).
func (rd *Reader) StreamSubject(r io.Reader) (*subject.Graph, error) {
	ls := newLineScanner(r)
	s := &streamer{g: subject.NewGraph("top", true), sigs: map[string]signal{}}
	// misordered reports, with ASTOrder set, that the declarations so
	// far already number nodes differently from the AST reader.
	misordered := func() error {
		if !rd.ASTOrder || s.misorder == 0 {
			return nil
		}
		return fmt.Errorf("%w: line %d: %w", ErrNeedsAST, s.misorder, errMisordered)
	}
	sawModel, sawContent, ended := false, false, false
	for {
		text, num, ok := ls.next()
		if !ok {
			break
		}
		ln := line{num: num}
		start, end := nextField(text, 0)
		if start == end {
			continue
		}
		if text[start] != '.' {
			// A cover row of the pending .names.
			if !s.pending {
				return nil, ln.errorf("unexpected token %q", text[start:end])
			}
			s.cov.add(text)
			continue
		}
		if err := s.flush(); err != nil {
			return nil, err
		}
		fields := appendFields(s.fields[:0], text)
		s.fields = fields
		directive := fields[0]
		if ended && string(directive) != ".end" {
			return nil, fmt.Errorf("%w: line %d: content after .end", ErrNeedsAST, num)
		}
		switch string(directive) {
		case ".model":
			if sawModel || sawContent {
				return nil, fmt.Errorf("%w: line %d: multiple models", ErrNeedsAST, num)
			}
			sawModel = true
			if len(fields) > 1 {
				s.g.Name = string(fields[1])
			}
			continue
		case ".inputs":
			for _, f := range fields[1:] {
				name := string(f)
				if _, defined := s.sigs[name]; defined && s.g.PI(name) == subject.None {
					return nil, ln.errorf("signal %q driven twice or collides with an input", name)
				}
				pi, err := s.g.AddPI(name)
				if err != nil {
					return nil, ln.errorf("%v", err)
				}
				// The AST reader decomposes every input before any logic.
				if s.sawDecl && s.misorder == 0 {
					s.misorder = num
				}
				s.sigs[name] = signal{node: pi, rank: rankPI | s.ordinal(&s.npi, num)}
			}
		case ".outputs":
			for _, f := range fields[1:] {
				s.outputs = append(s.outputs, string(f))
			}
		case ".names":
			if len(fields) < 2 {
				return nil, ln.errorf(".names needs at least an output")
			}
			s.begin(fields[1:len(fields)-1], fields[len(fields)-1], num)
		case ".gate":
			if rd.Gates == nil {
				return nil, ln.errorf(".gate requires a gate resolver (library)")
			}
			strs := make([]string, len(fields)-1)
			for i, f := range fields[1:] {
				strs[i] = string(f)
			}
			nd, err := rd.gateDecl(strs, ln)
			if err != nil {
				return nil, err
			}
			if err := s.buildGate(&nd); err != nil {
				return nil, err
			}
		case ".end":
			ended = true
		case ".latch", ".subckt", ".exdc":
			return nil, fmt.Errorf("%w: line %d: %s", ErrNeedsAST, num, directive)
		default:
			// Unsupported directives (timing etc.) are skipped, as in
			// the AST parser.
		}
		if err := misordered(); err != nil {
			return nil, err
		}
		sawContent = true
	}
	if err := ls.Err(); err != nil {
		return nil, err
	}
	if err := s.flush(); err != nil {
		return nil, err
	}
	if err := misordered(); err != nil {
		return nil, err
	}
	if !sawModel && !sawContent {
		return nil, fmt.Errorf("blif: no model found")
	}
	if len(s.outputs) == 0 {
		return nil, fmt.Errorf("blif: model %q declares no outputs and no latches", s.g.Name)
	}
	marked := make(map[string]bool, len(s.outputs))
	for _, name := range s.outputs {
		if marked[name] {
			continue // as network.MarkOutput: a repeated output is one output
		}
		marked[name] = true
		sig, ok := s.sigs[name]
		if !ok {
			return nil, fmt.Errorf("blif: output %q is never defined", name)
		}
		if sig.konst() {
			return nil, fmt.Errorf("blif: primary output %q is constant; constant outputs cannot be mapped", name)
		}
		s.g.MarkOutput(name, sig.node)
	}
	return s.g, nil
}

// begin opens a .names declaration: the output name is copied (the
// line buffer is reused) and the fanins are resolved now, while their
// names are at hand.
func (s *streamer) begin(ins [][]byte, out []byte, num int) {
	s.pending = true
	s.out, s.num, s.undef = string(out), num, ""
	s.fanins = s.fanins[:0]
	for _, in := range ins {
		sig, ok := s.sigs[string(in)]
		if !ok && s.undef == "" {
			s.undef = string(in)
		}
		s.fanins = append(s.fanins, sig)
	}
	s.cov.reset(len(ins))
}

// rankOf ranks the declaration on line num, given its resolved
// fanins, and keeps misorder: a declaration whose last-visited fanin
// precedes the previous declaration's would be visited earlier by the
// AST reader, which then numbers its nodes differently.
func (s *streamer) rankOf(fanins []signal, num int) uint32 {
	if len(fanins) == 0 {
		return rankConst | s.ordinal(&s.nconst, num)
	}
	visit := uint32(0)
	for _, f := range fanins {
		visit = max(visit, f.rank)
	}
	if visit < s.lastVisit && s.misorder == 0 {
		s.misorder = num
	}
	s.lastVisit, s.sawDecl = visit, true
	return rankDecl | s.ordinal(&s.ndecl, num)
}

// ordinal returns the next ordinal of a rank class, counted in *n, for
// the name declared on line num. Past 30 bits ordinals would alias, so
// such a model counts as misordered.
func (s *streamer) ordinal(n *uint32, num int) uint32 {
	if *n == 1<<30-1 && s.misorder == 0 {
		s.misorder = num
	}
	*n = min(*n+1, 1<<30-1)
	return *n - 1
}

// flush builds the pending .names declaration, if any.
func (s *streamer) flush() error {
	if !s.pending {
		return nil
	}
	s.pending = false
	ln := line{num: s.num}
	if s.cov.err != nil {
		return ln.errorf("%v", s.cov.err)
	}
	if err := s.define(s.out, ln, s.undef); err != nil {
		return err
	}
	rank := s.rankOf(s.fanins, s.num)
	sig := s.foldCover()
	sig.rank = rank
	s.sigs[s.out] = sig
	return nil
}

// define checks that output may be defined by the declaration on ln
// whose first undefined fanin is undef ("" when all are defined).
func (s *streamer) define(output string, ln line, undef string) error {
	if _, dup := s.sigs[output]; dup {
		return ln.errorf("signal %q driven twice or collides with an input", output)
	}
	if undef != "" {
		// Used before defined: the streaming pass cannot decompose
		// out of order (even a constant: the AST reader resolves the
		// reference or reports it).
		return fmt.Errorf("%w: line %d: signal %q used before its definition", ErrNeedsAST, ln.num, undef)
	}
	return nil
}

// foldCover turns the pending cover, validated in cov over the
// resolved fanins, into a signal, mirroring subject.FromNetwork's
// constant propagation through the folding constructors of package
// logic: a literal that evaluates true is dropped and one that
// evaluates false removes its cube; a cube left without literals makes
// the cover 1, and a cover left without cubes is 0 (complemented for
// an off-phase cover). What remains is decomposed by BuildSOP.
func (s *streamer) foldCover() signal {
	c := &s.cov
	if c.width == 0 {
		return constSignal(c.one)
	}
	s.lits, s.ends = s.lits[:0], s.ends[:0]
	for r := 0; r < c.rows; r++ {
		start := len(s.lits)
		dead := false
		for j, ch := range c.row(r) {
			if ch == '-' {
				continue
			}
			f, want := s.fanins[j], ch == '1'
			if !f.konst() {
				s.lits = append(s.lits, subject.Lit{Node: f.node, Neg: !want})
			} else if f.val() != want {
				dead = true
				break
			}
		}
		if dead {
			s.lits = s.lits[:start]
			continue
		}
		if len(s.lits) == start {
			return constSignal(c.on)
		}
		s.ends = append(s.ends, len(s.lits))
	}
	if len(s.ends) == 0 {
		return constSignal(!c.on)
	}
	return signal{node: s.g.BuildSOP(s.lits, s.ends, c.on)}
}

// buildGate decomposes a .gate declaration through its expression.
func (s *streamer) buildGate(nd *nodeDecl) error {
	undef := ""
	for _, in := range nd.inputs {
		if _, ok := s.sigs[in]; !ok {
			undef = in
			break
		}
	}
	if err := s.define(nd.output, nd.ln, undef); err != nil {
		return err
	}
	s.fanins = s.fanins[:0]
	for _, in := range nd.inputs {
		s.fanins = append(s.fanins, s.sigs[in])
	}
	rank := s.rankOf(s.fanins, nd.ln.num)
	// Mirror subject.FromNetwork: substitute constant fanins in fanin
	// order, then simplify through the folding constructors.
	fn := nd.fn
	for _, in := range nd.inputs {
		if sig := s.sigs[in]; sig.konst() {
			fn = substituteVar(fn, in, logic.Constant(sig.val()))
		}
	}
	fn = foldExpr(fn)
	if fn.Op == logic.OpConst {
		sig := constSignal(fn.Const)
		sig.rank = rank
		s.sigs[nd.output] = sig
		return nil
	}
	if s.env == nil {
		s.env = map[string]subject.Node{}
	}
	clear(s.env)
	for _, in := range nd.inputs {
		if sig := s.sigs[in]; !sig.konst() {
			s.env[in] = sig.node
		}
	}
	sn, err := s.g.Build(fn, s.env)
	if err != nil {
		return nd.ln.errorf("%v", err)
	}
	s.sigs[nd.output] = signal{node: sn, rank: rank}
	return nil
}

// ReadSubjectFile reads the BLIF file at path into a subject graph
// with ReadSubject.
func (rd *Reader) ReadSubjectFile(path string) (*subject.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return rd.ReadSubject(f)
}

// ReadSubject reads one BLIF model from r into a subject graph. It
// streams the model (StreamSubject); if streaming fails for any reason
// — a construct outside the streaming subset, malformed input or, with
// ASTOrder set, a numbering the AST reader would not produce — it
// rewinds r and re-reads it through Parse and subject.FromNetwork,
// whose graph or error is then the result. So ReadSubject accepts and
// rejects exactly what the AST reader does, with the AST reader's
// error text, and with ASTOrder set its graph equals Parse +
// FromNetwork's node for node, digest included. A model that failed
// only the order check is first streamed once more with its
// declarations in the AST reader's order (see topoOrdered).
func (rd *Reader) ReadSubject(r io.ReadSeeker) (*subject.Graph, error) {
	g, err := rd.StreamSubject(r)
	if err == nil {
		return g, nil
	}
	if err := rewind(r); err != nil {
		return nil, err
	}
	if errors.Is(err, errMisordered) {
		if text, ok := topoOrdered(r); ok {
			if g, err := rd.StreamSubject(bytes.NewReader(text)); err == nil {
				return g, nil
			}
		}
		if err := rewind(r); err != nil {
			return nil, err
		}
	}
	nw, err := rd.Parse(r)
	if err != nil {
		return nil, err
	}
	return subject.FromNetwork(nw)
}

// rewind returns r to its start for ReadSubject's second read.
func rewind(r io.Seeker) error {
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("blif: rewind to re-read: %v", err)
	}
	return nil
}

// topoOrdered rewrites a flat model with its declarations in the order
// network.TopoSort visits them when the AST reader builds the model:
// Kahn's algorithm with a FIFO queue over the inputs, then the
// fanin-free declarations, each later declaration queued when its last
// fanin is visited and ties kept in file order. Every other directive
// goes ahead of the declarations and .end last. The declarations keep
// their text, so the model is the same network, and TopoSort visits
// it in the new file order; streamed, its nodes are numbered as the
// AST reader numbers the original. StreamSubject's order check only
// confirms that the new order is the rewritten model's own visit
// order, so this must replay TopoSort exactly: a different tie order
// would pass the check with other numbers. ok is false for a model
// this cannot rewrite into the same network: several models, .gate,
// .latch or hierarchy, a name used before its declaration (the AST
// reader then orders declarations differently), a name defined twice,
// or a stray cover row.
func topoOrdered(r io.Reader) ([]byte, bool) {
	ls := newLineScanner(r)
	var head, blocks []byte
	var fields [][]byte
	// Declaration j's text is blocks[starts[j]:starts[j+1]] and its
	// fanins are fanins[fanEnd[j-1]:fanEnd[j]], as ids: input i is ^i,
	// declaration j is j.
	var starts []int
	var fanins, fanEnd []int32
	ids := map[string]int32{}
	// 1 + the last declaration that listed each input or declaration
	// as a fanin, to reject a fanin listed twice in linear time.
	var lastPI, lastDecl []int32
	npi := int32(0)
	inDecl, sawModel, sawContent, ended := false, false, false, false
	for {
		text, _, ok := ls.next()
		if !ok {
			break
		}
		start, end := nextField(text, 0)
		if start == end {
			continue
		}
		if text[start] != '.' {
			if !inDecl {
				return nil, false
			}
			blocks = append(append(blocks, text...), '\n')
			continue
		}
		inDecl = false
		fields = appendFields(fields[:0], text)
		directive := fields[0]
		if ended && string(directive) != ".end" {
			return nil, false
		}
		switch string(directive) {
		case ".model":
			if sawModel || sawContent {
				return nil, false
			}
			sawModel = true
			head = append(append(head, text...), '\n')
			continue
		case ".inputs":
			for _, f := range fields[1:] {
				if _, dup := ids[string(f)]; dup {
					return nil, false
				}
				ids[string(f)] = ^npi
				lastPI = append(lastPI, 0)
				npi++
			}
			head = append(append(head, text...), '\n')
		case ".names":
			if len(fields) < 2 {
				return nil, false
			}
			tag := int32(len(fanEnd)) + 1
			for _, f := range fields[1 : len(fields)-1] {
				id, ok := ids[string(f)]
				if !ok {
					return nil, false
				}
				last, k := lastDecl, id
				if id < 0 {
					last, k = lastPI, ^id
				}
				if last[k] == tag {
					return nil, false
				}
				last[k] = tag
				fanins = append(fanins, id)
			}
			out := fields[len(fields)-1]
			if _, dup := ids[string(out)]; dup {
				return nil, false
			}
			ids[string(out)] = int32(len(fanEnd))
			lastDecl = append(lastDecl, 0)
			fanEnd = append(fanEnd, int32(len(fanins)))
			starts = append(starts, len(blocks))
			blocks = append(append(blocks, text...), '\n')
			inDecl = true
		case ".end":
			ended = true
		case ".gate", ".latch", ".subckt", ".exdc":
			return nil, false
		default:
			head = append(append(head, text...), '\n')
		}
		sawContent = true
	}
	if ls.Err() != nil {
		return nil, false
	}
	starts = append(starts, len(blocks))

	// Kahn's algorithm over nodes 0..npi-1 (inputs) and npi+j
	// (declarations), with fanout lists in declaration order, as
	// network.TopoSort runs it on the AST reader's network.
	n := int(npi) + len(fanEnd)
	node := func(id int32) int32 {
		if id < 0 {
			return ^id
		}
		return npi + id
	}
	foStart := make([]int32, n+1)
	for _, id := range fanins {
		foStart[node(id)+1]++
	}
	for i := 1; i <= n; i++ {
		foStart[i] += foStart[i-1]
	}
	foList := make([]int32, len(fanins))
	fill := append([]int32(nil), foStart[:n]...)
	indeg := make([]int32, n)
	lo := int32(0)
	for j, hi := range fanEnd {
		indeg[int(npi)+j] = hi - lo
		for _, id := range fanins[lo:hi] {
			foList[fill[node(id)]] = npi + int32(j)
			fill[node(id)]++
		}
		lo = hi
	}
	queue := make([]int32, 0, n)
	for v := int32(0); v < int32(n); v++ {
		if indeg[v] == 0 {
			queue = append(queue, v)
		}
	}
	for i := 0; i < len(queue); i++ {
		v := queue[i]
		for _, fo := range foList[foStart[v]:foStart[v+1]] {
			if indeg[fo]--; indeg[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(queue) != n {
		return nil, false
	}
	out := make([]byte, 0, len(head)+len(blocks)+len(".end\n"))
	out = append(out, head...)
	for _, v := range queue[npi:] {
		j := v - npi
		out = append(out, blocks[starts[j]:starts[j+1]]...)
	}
	if ended {
		out = append(out, ".end\n"...)
	}
	return out, true
}

// substituteVar replaces variable v with expression rep in e,
// mirroring the constant propagation of subject.FromNetwork.
func substituteVar(e *logic.Expr, v string, rep *logic.Expr) *logic.Expr {
	if e.Op == logic.OpVar {
		if e.Var == v {
			return rep.Clone()
		}
		return e
	}
	c := &logic.Expr{Op: e.Op, Var: e.Var, Const: e.Const}
	c.Kids = make([]*logic.Expr, len(e.Kids))
	for i, k := range e.Kids {
		c.Kids[i] = substituteVar(k, v, rep)
	}
	return c
}

// foldExpr rebuilds e through the folding constructors, propagating
// constants — the same normalization subject.FromNetwork applies
// before decomposition, so streamed and AST-built graphs decompose
// identical expressions.
func foldExpr(e *logic.Expr) *logic.Expr {
	switch e.Op {
	case logic.OpConst, logic.OpVar:
		return e
	case logic.OpNot:
		return logic.Not(foldExpr(e.Kids[0]))
	case logic.OpAnd, logic.OpOr, logic.OpXor:
		kids := make([]*logic.Expr, len(e.Kids))
		for i, k := range e.Kids {
			kids[i] = foldExpr(k)
		}
		switch e.Op {
		case logic.OpAnd:
			return logic.And(kids...)
		case logic.OpOr:
			return logic.Or(kids...)
		default:
			return logic.Xor(kids...)
		}
	}
	return e
}
