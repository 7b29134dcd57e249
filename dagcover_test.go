package dagcover

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/logic"
)

// hasInverter reports whether lib has a one-input gate computing the
// complement of its input.
func hasInverter(lib *Library) bool {
	for _, g := range lib.Gates {
		if g.NumInputs() != 1 {
			continue
		}
		eq, err := logic.Equivalent(g.Expr.Rename(map[string]string{g.Pins[0].Name: "a"}), logic.MustParse("!a"))
		if err == nil && eq {
			return true
		}
	}
	return false
}

// compile compiles lib or fails the test.
func compile(t testing.TB, lib *Library) *CompiledLibrary {
	t.Helper()
	cl, err := CompileLibrary(lib)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// mapNet maps a network with Map or fails the test.
func mapNet(t testing.TB, nw *Network, opt MapOptions) *MapResult {
	t.Helper()
	res, err := Map(context.Background(), Input{Network: nw}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mapSubject maps a subject graph with Map or fails the test.
func mapSubject(t testing.TB, g *SubjectGraph, opt MapOptions) *MapResult {
	t.Helper()
	res, err := Map(context.Background(), Input{Subject: g}, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFacadeQuickstart(t *testing.T) {
	nw, err := ParseBLIF(strings.NewReader(`
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
`))
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib2())
	dag := mapNet(t, nw, MapOptions{Library: cl})
	tree := mapNet(t, nw, MapOptions{Mode: ModeTree, Library: cl})
	if dag.Delay > tree.Delay+1e-9 {
		t.Errorf("DAG delay %v exceeds tree delay %v", dag.Delay, tree.Delay)
	}
	for _, r := range []*MapResult{dag, tree} {
		if err := Verify(nw, r.Netlist); err != nil {
			t.Fatal(err)
		}
		if r.Cells == 0 || r.Area <= 0 || r.SubjectNodes == 0 {
			t.Errorf("result fields not populated: %+v", r)
		}
	}
}

func TestFacadeLibraries(t *testing.T) {
	for _, lib := range []*Library{Lib2(), Lib441(), Lib443()} {
		if !hasInverter(lib) || lib.Nand2() == nil {
			t.Errorf("%s: missing inv/nand2", lib.Name)
		}
		var buf bytes.Buffer
		if err := WriteLibrary(&buf, lib); err != nil {
			t.Fatal(err)
		}
		again, err := LoadLibrary(lib.Name, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(again.Gates) != len(lib.Gates) {
			t.Errorf("%s: library round trip lost gates", lib.Name)
		}
	}
}

func TestFacadeMapLUT(t *testing.T) {
	nw := bench.RippleAdder(8)
	res := mapNet(t, nw, MapOptions{Mode: ModeLUT, K: 4})
	if res.Depth <= 0 || res.LUTs <= 0 {
		t.Errorf("LUT result degenerate: %+v", res)
	}
	if err := VerifyNetworks(nw, res.Network); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMapOptions(t *testing.T) {
	nw := bench.RippleAdder(6)
	cl := compile(t, Lib441())
	unit := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay})
	ext := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, Class: MatchExtended})
	if ext.Delay > unit.Delay+1e-9 {
		t.Errorf("extended (%v) worse than standard (%v)", ext.Delay, unit.Delay)
	}
	rec := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, AreaRecovery: true})
	if rec.Delay != unit.Delay {
		t.Errorf("area recovery changed delay: %v vs %v", rec.Delay, unit.Delay)
	}
	// MatchExact is the zero value, so it selects the default class.
	exact := mapNet(t, nw, MapOptions{Library: cl, Delay: UnitDelay, Class: MatchExact})
	if exact.Delay != unit.Delay || exact.Cells != unit.Cells {
		t.Errorf("zero Class mapped differently from MatchStandard: %+v vs %+v", exact, unit)
	}
}

func TestFacadeMinAreaTree(t *testing.T) {
	nw := bench.ALU(4)
	cl := compile(t, Lib2())
	minDelay := mapNet(t, nw, MapOptions{Mode: ModeTree, Library: cl})
	minArea := mapNet(t, nw, MapOptions{Mode: ModeTreeArea, Library: cl})
	if minArea.Area > minDelay.Area+1e-9 {
		t.Errorf("min-area (%v) larger than min-delay (%v)", minArea.Area, minDelay.Area)
	}
	if err := Verify(nw, minArea.Netlist); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeSequential(t *testing.T) {
	nw := bench.PipelinedALU(4, 2)
	opt := MapOptions{Library: compile(t, Lib2())}
	res, err := MapSequential(context.Background(), nw, opt)
	if err != nil {
		t.Fatal(err)
	}
	if res.PeriodAfter > res.PeriodBefore+1e-9 {
		t.Errorf("retiming worsened period: %v -> %v", res.PeriodBefore, res.PeriodAfter)
	}
	if len(res.Network.Latches()) == 0 {
		t.Error("sequential mapping lost the latches")
	}
	if err := res.Network.Check(); err != nil {
		t.Fatal(err)
	}
	// Combinational circuits are rejected.
	if _, err := MapSequential(context.Background(), bench.RippleAdder(4), opt); err == nil {
		t.Error("combinational circuit accepted by MapSequential")
	}
}

func TestFacadeRetime(t *testing.T) {
	nw := bench.Correlator(8)
	before, err := MinPeriod(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	rt, p, err := Retime(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p > before+1e-9 {
		t.Errorf("retiming worsened period %v -> %v", before, p)
	}
	if err := rt.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestFacadeCloneMapper checks that runs on the library's pooled
// matcher clones, sequential and concurrent, map identically.
func TestFacadeCloneMapper(t *testing.T) {
	cl := compile(t, Lib441())
	nw := bench.ParityTree(8)
	opt := MapOptions{Library: cl, Delay: UnitDelay}
	a := mapNet(t, nw, opt)
	results := make([]*MapResult, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = Map(context.Background(), Input{Network: nw}, opt)
		}(i)
	}
	wg.Wait()
	for _, b := range results {
		if b == nil || a.Delay != b.Delay || a.Cells != b.Cells {
			t.Errorf("pooled clone mapped differently: %+v vs %+v", a, b)
		}
	}
	if cl.Library().Name != "44-1" {
		t.Errorf("library accessor wrong")
	}
}

func TestFacadeSubjectReuse(t *testing.T) {
	nw := bench.Comparator(8)
	g, err := BuildSubject(nw)
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib2())
	dag := mapSubject(t, g, MapOptions{Library: cl})
	tree := mapSubject(t, g, MapOptions{Mode: ModeTree, Library: cl})
	// Both used the same subject graph, as in the paper's setup.
	if dag.SubjectNodes != tree.SubjectNodes {
		t.Errorf("subject sizes differ: %d vs %d", dag.SubjectNodes, tree.SubjectNodes)
	}
	if dag.Delay > tree.Delay+1e-9 {
		t.Errorf("DAG (%v) worse than tree (%v)", dag.Delay, tree.Delay)
	}
}

// TestMapSharedSubjectConcurrently maps one subject graph from two
// goroutines at once, the way to use several cores since labeling is
// one serial pass: both runs must return the same netlist bytes and
// subject digest. Run with -race: the graph's lazily cached digest is
// filled by whichever run finishes first.
func TestMapSharedSubjectConcurrently(t *testing.T) {
	g, err := BuildSubject(bench.C432())
	if err != nil {
		t.Fatal(err)
	}
	cl := compile(t, Lib441())
	opt := MapOptions{Library: cl, Delay: UnitDelay}
	results := make([]*MapResult, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Map(context.Background(), Input{Subject: g}, opt)
		}(i)
	}
	wg.Wait()
	var blifs [2]bytes.Buffer
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if err := res.Netlist.WriteBLIF(&blifs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(blifs[0].Bytes(), blifs[1].Bytes()) {
		t.Error("concurrent runs on one subject graph returned different netlists")
	}
	if results[0].SubjectSHA != results[1].SubjectSHA || results[0].SubjectSHA != g.Digest() {
		t.Errorf("subject digests %s, %s; graph %s", results[0].SubjectSHA, results[1].SubjectSHA, g.Digest())
	}
}

func TestFacadeMappedBLIFRoundTrip(t *testing.T) {
	nw := bench.RippleAdder(4)
	lib := Lib2()
	res := mapNet(t, nw, MapOptions{Library: compile(t, lib)})
	var buf bytes.Buffer
	if err := res.Netlist.WriteBLIF(&buf); err != nil {
		t.Fatal(err)
	}
	again, err := ParseMappedBLIF(bytes.NewReader(buf.Bytes()), lib)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNetworks(nw, again); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeBalanceSubject(t *testing.T) {
	nw := bench.ALU(4)
	g, err := BuildSubject(nw)
	if err != nil {
		t.Fatal(err)
	}
	bg, err := BalanceSubject(g)
	if err != nil {
		t.Fatal(err)
	}
	res := mapSubject(t, bg, MapOptions{Library: compile(t, Lib441()), Delay: UnitDelay})
	if err := Verify(nw, res.Netlist); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeMapDAGWithChoices(t *testing.T) {
	nw := bench.ArrayMultiplier(6)
	opt := MapOptions{Library: compile(t, Lib441()), Delay: UnitDelay}
	plain := mapNet(t, nw, opt)
	opt.Mode = ModeChoices
	choices := mapNet(t, nw, opt)
	if choices.Delay > plain.Delay+1e-9 {
		t.Errorf("choices (%v) worse than plain DAG covering (%v)", choices.Delay, plain.Delay)
	}
	if err := Verify(nw, choices.Netlist); err != nil {
		t.Fatal(err)
	}
	if choices.SubjectNodes <= plain.SubjectNodes {
		t.Errorf("choice graph (%d nodes) should exceed the single graph (%d)",
			choices.SubjectNodes, plain.SubjectNodes)
	}
}

func TestFacadeMapSequentialLUT(t *testing.T) {
	nw := bench.PipelinedALU(4, 2)
	res, err := MapSequentialLUT(nw, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Period <= 0 || res.LUTs <= 0 {
		t.Errorf("degenerate result: %+v", res)
	}
	if err := res.Network.Check(); err != nil {
		t.Fatal(err)
	}
	if _, err := MapSequentialLUT(bench.RippleAdder(4), 4); err == nil {
		t.Error("combinational circuit accepted")
	}
}

func TestFacadeTimingAndBuffering(t *testing.T) {
	nw := bench.ALU(4)
	lib := Lib2()
	res := mapNet(t, nw, MapOptions{Library: compile(t, lib)})
	// Slack analysis.
	rep, err := AnalyzeTiming(res.Netlist, IntrinsicDelay, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WorstSlack > 1e-9 || rep.WorstSlack < -1e-9 {
		t.Errorf("worst slack = %v, want 0", rep.WorstSlack)
	}
	paths, err := WorstTimingPaths(res.Netlist, IntrinsicDelay, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || len(paths[0].Cells) == 0 {
		t.Errorf("paths degenerate: %d", len(paths))
	}
	// Loaded timing and buffering.
	loaded, err := LoadTiming(res.Netlist, 0)
	if err != nil {
		t.Fatal(err)
	}
	if loaded < res.Delay {
		t.Errorf("loaded delay %v below intrinsic %v", loaded, res.Delay)
	}
	buffered, err := InsertBuffers(res.Netlist, lib, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(nw, buffered); err != nil {
		t.Fatal(err)
	}
	// A buffer-less library fails cleanly.
	if _, err := InsertBuffers(res.Netlist, Lib441(), 4); err == nil {
		t.Error("buffer-less library accepted")
	}
}

func TestFacadeRequiredTimeTradeoff(t *testing.T) {
	nw := bench.ArrayMultiplier(6)
	cl := compile(t, Lib2())
	opt0 := mapNet(t, nw, MapOptions{Library: cl})
	relaxed := mapNet(t, nw, MapOptions{
		Library:      cl,
		AreaRecovery: true,
		RequiredTime: opt0.Delay * 1.2,
	})
	if relaxed.Delay > opt0.Delay*1.2+1e-6 {
		t.Errorf("relaxed delay %v exceeds target %v", relaxed.Delay, opt0.Delay*1.2)
	}
	if relaxed.Area > opt0.Area+1e-9 {
		t.Errorf("relaxed mapping larger than optimal-delay mapping: %v vs %v", relaxed.Area, opt0.Area)
	}
	if err := Verify(nw, relaxed.Netlist); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeWriteBLIFNetwork(t *testing.T) {
	nw := bench.ParityTree(5)
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, nw); err != nil {
		t.Fatal(err)
	}
	again, err := ParseBLIF(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyNetworks(nw, again); err != nil {
		t.Fatal(err)
	}
}
