package blif_test

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/subject"
)

// astSubject runs the reference path: full parse, then FromNetwork.
func astSubject(t testing.TB, text []byte) (*subject.Graph, error) {
	t.Helper()
	nw, err := (&blif.Reader{}).Parse(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	return subject.FromNetwork(nw)
}

// compareSubjects checks the streaming-vs-AST equivalence contract:
// same node/NAND/INV/strash counts, same PI names in the same order,
// same output names in the same order, and functional equality of
// every output under 64-way random simulation.
func compareSubjects(t *testing.T, name string, sg, ag *subject.Graph) {
	t.Helper()
	ss, as := sg.Stats(), ag.Stats()
	if ss != as {
		t.Errorf("%s: stream stats %v != ast stats %v", name, ss, as)
	}
	if sg.StrashHits() != ag.StrashHits() {
		t.Errorf("%s: stream strash hits %d != ast %d", name, sg.StrashHits(), ag.StrashHits())
	}
	if len(sg.PIs) != len(ag.PIs) {
		t.Fatalf("%s: PI count %d != %d", name, len(sg.PIs), len(ag.PIs))
	}
	for i := range sg.PIs {
		if sg.NameOf(sg.PIs[i]) != ag.NameOf(ag.PIs[i]) {
			t.Errorf("%s: PI %d named %q (stream) vs %q (ast)", name, i, sg.NameOf(sg.PIs[i]), ag.NameOf(ag.PIs[i]))
		}
	}
	if len(sg.Outputs) != len(ag.Outputs) {
		t.Fatalf("%s: output count %d != %d", name, len(sg.Outputs), len(ag.Outputs))
	}
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 4; round++ {
		in := map[string]uint64{}
		for _, pi := range sg.PIs {
			in[sg.NameOf(pi)] = rng.Uint64()
		}
		sv, err := sg.Eval(in)
		if err != nil {
			t.Fatalf("%s: stream eval: %v", name, err)
		}
		av, err := ag.Eval(in)
		if err != nil {
			t.Fatalf("%s: ast eval: %v", name, err)
		}
		for i, so := range sg.Outputs {
			ao := ag.Outputs[i]
			if so.Name != ao.Name {
				t.Fatalf("%s: output %d named %q (stream) vs %q (ast)", name, i, so.Name, ao.Name)
			}
			if sv[so.Node] != av[ao.Node] {
				t.Errorf("%s: output %q differs under simulation", name, so.Name)
			}
		}
	}
}

// TestStreamMatchesASTOnSuite is the equivalence property over every
// suite circuit: rendering a circuit to BLIF and ingesting it through
// the streaming reader must produce the same subject graph (counts,
// strash hits, PO bindings, functions) as the AST reader.
func TestStreamMatchesASTOnSuite(t *testing.T) {
	for _, c := range renderSuite() {
		if c.err != nil {
			t.Fatalf("%s: render: %v", c.name, c.err)
		}
		sg, err := (&blif.Reader{}).StreamSubject(bytes.NewReader(c.text))
		if errors.Is(err, blif.ErrNeedsAST) {
			// Sequential circuits (latches) legitimately fall back;
			// exercise the file-level fallback instead.
			path := filepath.Join(t.TempDir(), c.name+".blif")
			if err := os.WriteFile(path, c.text, 0o644); err != nil {
				t.Fatal(err)
			}
			fg, ferr := (&blif.Reader{}).ReadSubjectFile(path)
			if ferr != nil {
				t.Fatalf("%s: fallback: %v", c.name, ferr)
			}
			ag, aerr := astSubject(t, c.text)
			if aerr != nil {
				t.Fatalf("%s: ast: %v", c.name, aerr)
			}
			compareSubjects(t, c.name+"(fallback)", fg, ag)
			continue
		}
		if err != nil {
			t.Fatalf("%s: stream: %v", c.name, err)
		}
		ag, err := astSubject(t, c.text)
		if err != nil {
			t.Fatalf("%s: ast: %v", c.name, err)
		}
		compareSubjects(t, c.name, sg, ag)
	}
}

// TestStreamMatchesASTOnFamilies runs the same property on the
// streamed benchmark families, whose BLIF never exists as a network
// in production.
func TestStreamMatchesASTOnFamilies(t *testing.T) {
	for _, fam := range []string{"mult12", "alumesh4x3"} {
		gen, ok := bench.StreamFamily(fam)
		if !ok {
			t.Fatalf("family %s not resolved", fam)
		}
		var buf bytes.Buffer
		if err := gen(&buf); err != nil {
			t.Fatal(err)
		}
		sg, err := (&blif.Reader{}).StreamSubject(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: stream: %v", fam, err)
		}
		ag, err := astSubject(t, buf.Bytes())
		if err != nil {
			t.Fatalf("%s: ast: %v", fam, err)
		}
		compareSubjects(t, fam, sg, ag)
	}
}

func TestStreamFallsBackOutsideSubset(t *testing.T) {
	cases := []struct{ name, text string }{
		{"subckt", ".model top\n.inputs a\n.outputs o\n.subckt sub x=a y=o\n.end\n.model sub\n.inputs x\n.outputs y\n.names x y\n1 1\n.end\n"},
		{"latch", ".model seq\n.inputs a\n.outputs o\n.latch a q 0\n.names q o\n1 1\n.end\n"},
		{"forward ref", ".model fwd\n.inputs a\n.outputs o\n.names mid o\n1 1\n.names a mid\n1 1\n.end\n"},
		{"two models", ".model m1\n.inputs a\n.outputs o\n.names a o\n1 1\n.end\n.model m2\n.inputs b\n.outputs p\n.names b p\n1 1\n.end\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (&blif.Reader{}).StreamSubject(strings.NewReader(tc.text))
			if !errors.Is(err, blif.ErrNeedsAST) {
				t.Fatalf("err = %v, want ErrNeedsAST", err)
			}
			// The file-level entry point must transparently recover.
			path := filepath.Join(t.TempDir(), "m.blif")
			if err := os.WriteFile(path, []byte(tc.text), 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := (&blif.Reader{}).ReadSubjectFile(path)
			if err != nil {
				t.Fatalf("fallback: %v", err)
			}
			if len(g.Outputs) == 0 {
				t.Fatal("fallback produced no outputs")
			}
		})
	}
}

// TestASTOrderStopsAtFirstMisorder checks that with ASTOrder set the
// streamer gives up at the first declaration the AST reader would
// number differently, not at the end of the model, and that
// ReadSubject's fallback then returns the AST reader's graph.
func TestASTOrderStopsAtFirstMisorder(t *testing.T) {
	text := ".model m\n.inputs a b c\n.outputs y z w\n" +
		".names b c z\n11 1\n" + // line 4: last-visited fanin c
		".names a b y\n01 1\n" + // line 6: last-visited fanin b, visited before c
		".names y z w\n11 1\n.end\n"
	// A malformed row after the misorder is never reached.
	bad := strings.Replace(text, ".end", ".names y q\n2 1\n.end", 1)
	_, err := (&blif.Reader{ASTOrder: true}).StreamSubject(strings.NewReader(bad))
	if !errors.Is(err, blif.ErrNeedsAST) || !strings.Contains(err.Error(), "line 6:") {
		t.Fatalf("ASTOrder stream err = %v, want ErrNeedsAST at line 6", err)
	}
	if _, err := (&blif.Reader{}).StreamSubject(strings.NewReader(text)); err != nil {
		t.Fatalf("declaration-order stream: %v", err)
	}
	ag, err := astSubject(t, []byte(text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := (&blif.Reader{ASTOrder: true}).ReadSubject(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if g.Digest() != ag.Digest() {
		t.Error("ReadSubject's graph differs from the AST reader's")
	}
}

// TestTopoOrderedMatchesAST checks the reordering that spares models
// failing only the order check from the AST reader: the ten suite
// circuits as Write emits them (C499, C1355 and C1908 fail the check)
// and in DFS post-order from the outputs (all fail it), random DAGs in
// DFS order, and a model with inputs declared after logic. Each must
// stream, once reordered, into the AST reader's graph digest for
// digest, and ReadSubject must return that graph.
func TestTopoOrderedMatchesAST(t *testing.T) {
	var texts []suiteRender
	for _, c := range renderSuite() {
		texts = append(texts, c, suiteRender{name: c.name + "/dfs", text: dfsOrdered(c.text)})
	}
	for seed := int64(1); seed <= 20; seed++ {
		var buf bytes.Buffer
		if err := blif.Write(&buf, bench.RandomDAG(16, 200, seed)); err != nil {
			t.Fatal(err)
		}
		texts = append(texts, suiteRender{name: fmt.Sprintf("RandomDAG(16,200,%d)/dfs", seed), text: dfsOrdered(buf.Bytes())})
	}
	texts = append(texts, suiteRender{name: "late inputs", text: []byte(".model late\n.inputs a\n.outputs y\n" +
		".names k\n1\n.names a k m\n11 1\n.inputs b\n.names m b y\n10 1\n.end\n")})
	misordered := 0
	for _, c := range texts {
		ag, err := astSubject(t, c.text)
		if err != nil {
			t.Fatalf("%s: ast: %v", c.name, err)
		}
		g, err := (&blif.Reader{ASTOrder: true}).ReadSubject(bytes.NewReader(c.text))
		if err != nil || g.Digest() != ag.Digest() {
			t.Fatalf("%s: ReadSubject = %v, or its digest differs from the AST reader's", c.name, err)
		}
		_, err = (&blif.Reader{ASTOrder: true}).StreamSubject(bytes.NewReader(c.text))
		if err == nil {
			continue
		}
		if !strings.Contains(err.Error(), "declaration order differs") {
			t.Fatalf("%s: stream: %v", c.name, err)
		}
		misordered++
		text, ok := blif.TopoOrdered(bytes.NewReader(c.text))
		if !ok {
			t.Fatalf("%s: not reordered", c.name)
		}
		sg, err := (&blif.Reader{ASTOrder: true}).StreamSubject(bytes.NewReader(text))
		if err != nil {
			t.Fatalf("%s: reordered model does not stream: %v", c.name, err)
		}
		if sg.Digest() != ag.Digest() {
			t.Fatalf("%s: reordered graph differs from the AST reader's", c.name)
		}
	}
	if misordered < 30 {
		t.Errorf("only %d of %d models failed the order check", misordered, len(texts))
	}
}

// TestTopoOrderedDeclines checks that the reordering refuses what it
// cannot rewrite into the same network, each misordered before the
// construct, and that ReadSubject then returns the AST reader's result.
func TestTopoOrderedDeclines(t *testing.T) {
	const pre = ".model m\n.inputs a b c\n.outputs y\n.names b c t\n11 1\n.names a b u\n01 1\n"
	for name, tail := range map[string]string{
		"use before declaration": ".names v y\n1 1\n.names t u v\n11 1\n.end\n",
		"fanin listed twice":     ".names t t y\n11 1\n.end\n",
		"defined twice":          ".names t u y\n11 1\n.names a y\n1 1\n.end\n",
		"latch":                  ".latch t q 0\n.names q u y\n11 1\n.end\n",
		"gate":                   ".gate nand2 a=t b=u O=y\n.end\n",
		"second model":           ".names t u y\n11 1\n.end\n.model n\n.inputs x\n.outputs z\n.names x z\n1 1\n.end\n",
		"content after end":      ".names t u y\n11 1\n.end\n.names a z\n1 1\n",
		"stray row":              ".outputs t\n11 1\n.names t u y\n11 1\n.end\n",
	} {
		text := pre + tail
		if _, ok := blif.TopoOrdered(strings.NewReader(text)); ok {
			t.Errorf("%s: reordered", name)
		}
		ag, aerr := astSubject(t, []byte(text))
		g, err := (&blif.Reader{ASTOrder: true}).ReadSubject(strings.NewReader(text))
		switch {
		case (err == nil) != (aerr == nil) || err != nil && err.Error() != aerr.Error():
			t.Errorf("%s: ReadSubject error %v, AST error %v", name, err, aerr)
		case err == nil && g.Digest() != ag.Digest():
			t.Errorf("%s: ReadSubject's graph differs from the AST reader's", name)
		}
	}
}

// dfsOrdered re-emits a model written by Write with its .names blocks
// in DFS post-order from the outputs, as many tools write BLIF, and
// logic no output reads after them.
func dfsOrdered(text []byte) []byte {
	var head, tail []string
	blocks := map[string][]string{}
	fanins := map[string][]string{}
	var outs, names []string
	cur := ""
	for _, l := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		f := strings.Fields(l)
		switch {
		case len(f) > 0 && f[0] == ".names":
			cur = f[len(f)-1]
			blocks[cur], fanins[cur] = []string{l}, f[1:len(f)-1]
			names = append(names, cur)
		case len(f) > 0 && f[0] == ".end":
			cur, tail = "", append(tail, l)
		case len(f) > 0 && strings.HasPrefix(f[0], "."):
			if f[0] == ".outputs" {
				outs = append(outs, f[1:]...)
			}
			cur, head = "", append(head, l)
		case cur != "":
			blocks[cur] = append(blocks[cur], l)
		default:
			head = append(head, l)
		}
	}
	done := map[string]bool{}
	var body []string
	var visit func(n string)
	visit = func(n string) {
		if done[n] || blocks[n] == nil {
			return
		}
		done[n] = true
		for _, f := range fanins[n] {
			visit(f)
		}
		body = append(body, blocks[n]...)
	}
	for _, n := range append(outs, names...) { // dangling logic last
		visit(n)
	}
	return []byte(strings.Join(append(append(head, body...), tail...), "\n") + "\n")
}

func TestStreamFlatFileSkipsFallback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "flat.blif")
	text := ".model flat\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n"
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := (&blif.Reader{}).ReadSubjectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g.Name != "flat" || len(g.PIs) != 2 || len(g.Outputs) != 1 {
		t.Fatalf("unexpected graph: name=%q pis=%d outs=%d", g.Name, len(g.PIs), len(g.Outputs))
	}
}

// TestContinuationAtEOF pins the position-accurate error for a '\'
// continuation that runs into end of file, for both reader paths.
func TestContinuationAtEOF(t *testing.T) {
	text := ".model m\n.inputs a\n.outputs o\n.names a \\"
	_, err := blif.ParseString(text)
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "end of file") {
		t.Errorf("AST parser error = %v, want line-4 continuation-at-EOF", err)
	}
	_, err = (&blif.Reader{}).StreamSubject(strings.NewReader(text))
	if err == nil || !strings.Contains(err.Error(), "line 4") || !strings.Contains(err.Error(), "end of file") {
		t.Errorf("stream reader error = %v, want line-4 continuation-at-EOF", err)
	}
}

var streamErrorCases = []struct{ name, text, want string }{
	{"empty", "", "no model"},
	{"no outputs", ".model m\n.inputs a\n.end\n", "no outputs"},
	{"undefined output", ".model m\n.inputs a\n.outputs o\n.end\n", "never defined"},
	{"double drive", ".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.names a o\n0 1\n.end\n", "twice"},
	{"drives input", ".model m\n.inputs a\n.outputs a\n.names a\n1\n.end\n", "twice"},
	{"constant output", ".model m\n.inputs a\n.outputs o\n.names o\n1\n.end\n", "constant"},
	{"stray token", ".model m\n.inputs a\n.outputs o\ngarbage row\n.end\n", "unexpected token"},
	{"bad cover", ".model m\n.inputs a b\n.outputs o\n.names a b o\n1 1\n.end\n", "columns"},
}

func TestStreamErrors(t *testing.T) {
	for _, tc := range streamErrorCases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := (&blif.Reader{}).StreamSubject(strings.NewReader(tc.text))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
			if errors.Is(err, blif.ErrNeedsAST) {
				t.Fatalf("hard error %v must not trigger AST fallback", err)
			}
		})
	}
}

// FuzzStreamVsAST cross-checks the two readers on arbitrary input:
// whenever the streaming reader accepts a model, the AST reader must
// accept it too and produce an equivalent subject graph. The seed
// corpus covers the malformed shapes that historically broke BLIF
// readers (dangling continuations, truncated covers, stray tokens).
func FuzzStreamVsAST(f *testing.F) {
	seeds := []string{
		".model m\n.inputs a b\n.outputs o\n.names a b o\n11 1\n.end\n",
		".model m\n.inputs a\n.outputs o\n.names a \\\no\n1 1\n.end\n",
		".model m\n.inputs a \\",
		".model m\n.inputs a\n.outputs o\n.names a o\n1\n.end\n",
		".model m\n.inputs a\n.outputs o\n.names a o\n2 1\n.end\n",
		".names x\n",
		".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.names a o\n1 1\n.end\n",
		".model m\n# comment only\n.end\n",
		".model m\n.inputs a\n.outputs o\n.latch a o 0\n.end\n",
		".model m\n.inputs a\n.outputs o\n.unsupported x y\n.names a o\n1 1\n.end\n",
		"\x00\x01\x02",
		".model m\n.inputs a\n.outputs o\n.names a o\n- 1\n.end\n",
	}
	dir := "testdata/fuzz-seeds"
	if entries, err := os.ReadDir(dir); err == nil {
		for _, e := range entries {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				f.Fatal(err)
			}
			seeds = append(seeds, string(b))
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<16 {
			return
		}
		checkStreamSubject(t, text)
	})
}

// checkStreamSubject is the streaming reader's contract on arbitrary
// input: it returns ErrNeedsAST, or it fails exactly when Parse +
// FromNetwork fails, or it returns a graph equivalent to theirs. It
// never panics. ReadSubject with ASTOrder returns their graph node for
// node (equal digests) or their error text.
func checkStreamSubject(t *testing.T, text string) {
	t.Helper()
	ag, aerr := astSubject(t, []byte(text))
	rg, rerr := (&blif.Reader{ASTOrder: true}).ReadSubject(strings.NewReader(text))
	switch {
	case (rerr == nil) != (aerr == nil):
		t.Fatalf("ReadSubject error %v, AST error %v\ninput: %.400q", rerr, aerr, text)
	case rerr != nil && rerr.Error() != aerr.Error():
		t.Fatalf("ReadSubject error %q, AST error %q\ninput: %.400q", rerr, aerr, text)
	case rerr == nil && rg.Digest() != ag.Digest():
		t.Fatalf("ReadSubject digest differs from the AST reader's\ninput: %.400q", text)
	}
	sg, serr := (&blif.Reader{}).StreamSubject(strings.NewReader(text))
	if errors.Is(serr, blif.ErrNeedsAST) {
		return
	}
	switch {
	case serr != nil && aerr == nil:
		t.Fatalf("stream rejects what AST accepts: %v\ninput: %.400q", serr, text)
	case serr == nil && aerr != nil:
		t.Fatalf("stream accepts what AST rejects: %v\ninput: %.400q", aerr, text)
	case serr == nil:
		compareSubjects(t, "fuzz", sg, ag)
	}
}

// FuzzStreamSubject checks checkStreamSubject's contract from a
// committed corpus (testdata/fuzz/FuzzStreamSubject): every suite
// circuit as blif.Write renders it, the small streamed families, and
// the inputs of TestStreamErrors. Regenerate it with
//
//	go test ./internal/blif -run TestFuzzCorpus -write-corpus
func FuzzStreamSubject(f *testing.F) {
	// Inputs on which the streaming reader once disagreed with the AST
	// reader: an input redeclaring a defined signal, a repeated output,
	// and a constant node over a signal that is never defined.
	f.Add(".model m\n.inputs a\n.outputs o\n.names c\n1\n.inputs c\n.names a c o\n11 1\n.end\n")
	f.Add(".model m\n.inputs a b\n.outputs o o\n.names a b o\n11 1\n.end\n")
	f.Add(".model m\n.inputs a\n.outputs o\n.names a o\n1 1\n.names zz y\n- 1\n.end\n")
	// Separators strings.Fields knows beyond ASCII, and CRLF ends.
	f.Add(".model m\n.inputs a\u00a0b\n.outputs o\n.names a b\u0085o\n11\u2003 1\n.end\n")
	f.Add(".model m\r\n.inputs a b\r\n.outputs o\r\n.names a b o\r\n11 1\r\n.end\r\n")
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<17 {
			return
		}
		checkStreamSubject(t, text)
	})
}

var writeCorpus = flag.Bool("write-corpus", false, "rewrite the FuzzStreamSubject seed corpus")

// corpusSeeds returns the FuzzStreamSubject seeds by file name.
func corpusSeeds(t *testing.T) map[string][]byte {
	seeds := map[string][]byte{}
	for _, c := range renderSuite() {
		if c.err != nil {
			t.Fatalf("%s: %v", c.name, c.err)
		}
		seeds["suite-"+strings.ToLower(c.name)] = c.text
	}
	for _, fam := range []string{"mult1", "mult2", "mult3", "alumesh1x1", "alumesh2x1"} {
		gen, ok := bench.StreamFamily(fam)
		if !ok {
			t.Fatalf("family %s not resolved", fam)
		}
		var buf bytes.Buffer
		if err := gen(&buf); err != nil {
			t.Fatal(err)
		}
		seeds["family-"+fam] = buf.Bytes()
	}
	for _, tc := range streamErrorCases {
		seeds["error-"+strings.ReplaceAll(tc.name, " ", "-")] = []byte(tc.text)
	}
	return seeds
}

// TestFuzzCorpus keeps the committed corpus in step with its sources:
// every seed file must hold exactly what corpusSeeds renders today.
func TestFuzzCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzStreamSubject")
	for name, text := range corpusSeeds(t) {
		file := []byte(fmt.Sprintf("go test fuzz v1\nstring(%q)\n", text))
		path := filepath.Join(dir, name)
		if *writeCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, file, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (rerun with -write-corpus)", err)
		}
		if !bytes.Equal(got, file) {
			t.Errorf("%s is stale (rerun with -write-corpus)", path)
		}
	}
}

// TestLongLines pins the single line bound of both readers: a line of
// several megabytes is accepted whether or not it is split by a '\'
// continuation, and a line past the bound is a numbered error rather
// than a scanner failure.
func TestLongLines(t *testing.T) {
	var ins strings.Builder
	for i := 0; ins.Len() < 5_500_000; i++ {
		fmt.Fprintf(&ins, " in%d", i)
	}
	inputs := ins.String()
	half := strings.IndexByte(inputs[len(inputs)/2:], ' ') + len(inputs)/2
	body := "\n.outputs o\n.names in0 in1 o\n11 1\n.end\n"
	for name, text := range map[string]string{
		"one line":     ".model wide\n.inputs" + inputs + body,
		"continuation": ".model wide\n.inputs" + inputs[:half] + " \\\n" + inputs[half:] + body,
	} {
		sg, err := (&blif.Reader{}).StreamSubject(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: stream: %v", name, err)
		}
		nw, err := blif.ParseString(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if len(sg.PIs) != len(nw.Inputs()) || len(sg.PIs) < 500_000 {
			t.Fatalf("%s: stream read %d inputs, parse %d", name, len(sg.PIs), len(nw.Inputs()))
		}
	}
	tooLong := ".model wide\n.inputs a\n.outputs " + strings.Repeat("o", 1<<24) + body
	_, serr := (&blif.Reader{}).StreamSubject(strings.NewReader(tooLong))
	_, perr := blif.ParseString(tooLong)
	for reader, err := range map[string]error{"stream": serr, "parse": perr} {
		if err == nil || !strings.HasPrefix(err.Error(), "blif: line 3: ") || !strings.Contains(err.Error(), "exceeds") {
			t.Errorf("%s: err = %v, want a line-3 bound error", reader, err)
		}
	}
}
