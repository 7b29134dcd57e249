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
// ReadSubjectFile transparently re-reads the file through the full
// parser.
package blif

import (
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

// signal is what a name stands for while streaming: a subject node, or
// a constant folded away before decomposition.
type signal struct {
	node  subject.Node
	konst bool // node is None and the signal is the constant val
	val   bool
}

func constSignal(v bool) signal { return signal{node: subject.None, konst: true, val: v} }

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
// use ReadSubjectFile for transparent fallback.
func (rd *Reader) StreamSubject(r io.Reader) (*subject.Graph, error) {
	ls := newLineScanner(r)
	s := &streamer{g: subject.NewGraph("top", true), sigs: map[string]signal{}}
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
				s.sigs[name] = signal{node: pi}
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
		sawContent = true
	}
	if err := ls.Err(); err != nil {
		return nil, err
	}
	if err := s.flush(); err != nil {
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
		if sig.konst {
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
	s.sigs[s.out] = s.foldCover()
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
			if !f.konst {
				s.lits = append(s.lits, subject.Lit{Node: f.node, Neg: !want})
			} else if f.val != want {
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
	// Mirror subject.FromNetwork: substitute constant fanins in fanin
	// order, then simplify through the folding constructors.
	fn := nd.fn
	for _, in := range nd.inputs {
		if sig := s.sigs[in]; sig.konst {
			fn = substituteVar(fn, in, logic.Constant(sig.val))
		}
	}
	fn = foldExpr(fn)
	if fn.Op == logic.OpConst {
		s.sigs[nd.output] = constSignal(fn.Const)
		return nil
	}
	if s.env == nil {
		s.env = map[string]subject.Node{}
	}
	clear(s.env)
	for _, in := range nd.inputs {
		if sig := s.sigs[in]; !sig.konst {
			s.env[in] = sig.node
		}
	}
	sn, err := s.g.Build(fn, s.env)
	if err != nil {
		return nd.ln.errorf("%v", err)
	}
	s.sigs[nd.output] = signal{node: sn}
	return nil
}

// ReadSubjectFile reads the BLIF file at path into a subject graph.
// Flat models take the streaming path; hierarchical or out-of-order
// models are transparently re-read through the AST parser and
// subject.FromNetwork.
func (rd *Reader) ReadSubjectFile(path string) (*subject.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	g, serr := rd.StreamSubject(f)
	if serr == nil {
		return g, nil
	}
	if !errors.Is(serr, ErrNeedsAST) {
		return nil, serr
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("blif: rewind for AST fallback: %v", err)
	}
	nw, err := rd.Parse(f)
	if err != nil {
		return nil, err
	}
	return subject.FromNetwork(nw)
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
