// Benchmark harness: the figures, the engine's layers (matching, memo,
// subject build, ingest, emit, verify) and the studies that map
// through the facade. Custom metrics report the mapped delay/area/cells
// alongside the wall-clock cost. The table and ablation benchmarks
// live with the experiments they regenerate (internal/experiments).
//
//	go test -bench=. -benchmem
//	go test -bench=BenchmarkFigure2 -benchtime=1x
package dagcover

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/core"
	"dagcover/internal/cutmap"
	"dagcover/internal/flowmap"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/logic"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// BenchmarkFigure1Matching times match enumeration on the Figure 1
// structure in both classes (the cost of relaxing one-to-one).
func BenchmarkFigure1Matching(b *testing.B) {
	lib := genlib.NewLibrary("fig1")
	e := logic.MustParse("!(a*!b)")
	g := &genlib.Gate{Name: "andnot", Area: 2, Output: "O", Expr: e}
	for _, v := range e.Vars() {
		g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
	}
	if err := lib.Add(g); err != nil {
		b.Fatal(err)
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(pats)
	sg := subject.NewGraph("fig1", true)
	p, _ := sg.AddPI("p")
	q, _ := sg.AddPI("q")
	n := sg.Nand(p, q)
	top := sg.Nand(n, sg.Not(n))
	for _, class := range []match.Class{match.Standard, match.Extended} {
		b.Run(class.String(), func(b *testing.B) {
			found := 0
			for i := 0; i < b.N; i++ {
				found = len(m.AllMatches(sg, top, class))
			}
			b.ReportMetric(float64(found), "matches")
		})
	}
}

// BenchmarkFigure2Duplication times the Figure 2 mapping in both
// modes; the metrics show the delay-1-vs-2 and duplication effects.
func BenchmarkFigure2Duplication(b *testing.B) {
	lib := genlib.NewLibrary("fig2")
	for _, spec := range []struct {
		name, expr string
		area       float64
	}{{"inv", "!a", 1}, {"nand2", "!(a*b)", 2}, {"ao21n", "a*b+!c", 3}} {
		e := logic.MustParse(spec.expr)
		g := &genlib.Gate{Name: spec.name, Area: spec.area, Output: "O", Expr: e}
		for _, v := range e.Vars() {
			g.Pins = append(g.Pins, genlib.Pin{Name: v, RiseBlock: 1, FallBlock: 1, InputLoad: 1, MaxLoad: 999})
		}
		if err := lib.Add(g); err != nil {
			b.Fatal(err)
		}
	}
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(pats)
	sg := subject.NewGraph("fig2", true)
	pa, _ := sg.AddPI("a")
	pb, _ := sg.AddPI("b")
	pc, _ := sg.AddPI("c")
	pd, _ := sg.AddPI("d")
	mid := sg.Nand(pa, pb)
	sg.MarkOutput("o1", sg.Nand(mid, pc))
	sg.MarkOutput("o2", sg.Nand(mid, pd))
	for _, mode := range []struct {
		name  string
		class match.Class
	}{{"tree", match.Exact}, {"dag", match.Standard}} {
		b.Run(mode.name, func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				res, err := core.Map(sg, m, core.Options{Class: mode.class, Delay: genlib.UnitDelay{}})
				if err != nil {
					b.Fatal(err)
				}
				delay = res.Delay
			}
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkFlowMap times the §2 FPGA mapper across k on the suite's
// multiplier (the deepest circuit).
func BenchmarkFlowMap(b *testing.B) {
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{3, 4, 5, 6} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			var depth, luts int
			for i := 0; i < b.N; i++ {
				res, err := flowmap.Map(g, k)
				if err != nil {
					b.Fatal(err)
				}
				depth, luts = res.Depth, res.LUTs
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkSequential times the §4 flow (map + retime) on pipelined
// circuits.
func BenchmarkSequential(b *testing.B) {
	opt := MapOptions{Library: compile(b, Lib2())}
	for _, cfg := range []struct {
		name string
		nw   *Network
	}{
		{"palu8x2", bench.PipelinedALU(8, 2)},
		{"palu8x3", bench.PipelinedALU(8, 3)},
		{"correlator16", bench.Correlator(16)},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			var before, after float64
			for i := 0; i < b.N; i++ {
				res, err := MapSequential(context.Background(), cfg.nw, opt)
				if err != nil {
					b.Fatal(err)
				}
				before, after = res.PeriodBefore, res.PeriodAfter
			}
			b.ReportMetric(before, "period0")
			b.ReportMetric(after, "period")
		})
	}
}

// BenchmarkMemoLabeling isolates the structural match memo on the
// multiplier under 44-3 (the acceptance case): the same labeling run
// with the memo off and on. Every iteration resets the matcher, so the
// memo-on run records and hits within one C6288 mapping, the per-call
// scope Map gives it — the labelNs metric is the phase the memo
// targets. Results must be bit-identical in both modes.
func BenchmarkMemoLabeling(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	var refDelay float64
	var refCells int
	for _, mode := range []struct {
		name string
		memo bool
	}{{"off", false}, {"on", true}} {
		m := match.NewMatcher(shared)
		m.SetMemoEnabled(mode.memo)
		b.Run(mode.name, func(b *testing.B) {
			var delay float64
			var cells int
			var label time.Duration
			for i := 0; i < b.N; i++ {
				m.Reset()
				res, err := core.Map(g, m, core.Options{
					Class: match.Standard, Delay: genlib.UnitDelay{},
				})
				if err != nil {
					b.Fatal(err)
				}
				delay, cells = res.Delay, res.Netlist.NumCells()
				label = res.Stats.Phases.Label
			}
			if refCells == 0 {
				refDelay, refCells = delay, cells
			} else if delay != refDelay || cells != refCells {
				b.Fatalf("memo=%s diverged: delay %v cells %d vs %v/%d",
					mode.name, delay, cells, refDelay, refCells)
			}
			b.ReportMetric(float64(label.Nanoseconds()), "labelNs")
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkSignatureIndex isolates the root-signature index: the same
// labeling run with and without it, reporting the pattern plans tried
// per iteration (the index's whole effect is that column plus the
// saved wall clock).
func BenchmarkSignatureIndex(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	g, err := subject.FromNetwork(bench.C6288())
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		m    *match.Matcher
	}{
		{"indexed", match.NewMatcher(shared)},
		{"fullscan", match.NewMatcher(shared, match.WithoutSignatureIndex())},
	} {
		b.Run(mode.name, func(b *testing.B) {
			var tried, matches int
			for i := 0; i < b.N; i++ {
				res, err := core.Map(g, mode.m, core.Options{
					Class: match.Standard, Delay: genlib.UnitDelay{},
				})
				if err != nil {
					b.Fatal(err)
				}
				tried, matches = res.Stats.PatternsTried, res.Stats.MatchesEnumerated
			}
			b.ReportMetric(float64(tried), "plansTried")
			b.ReportMetric(float64(matches), "matches")
		})
	}
}

// BenchmarkMatcherEnumerate is a microbenchmark of the graph-match
// inner loop: all standard matches at every node of the multiplier
// under 44-3.
func BenchmarkMatcherEnumerate(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	count := 0
	for i := 0; i < b.N; i++ {
		count = 0
		for j := 0; j < g.NumNodes(); j++ {
			m.Enumerate(g, subject.Node(j), match.Standard, func(*match.Match) bool {
				count++
				return true
			})
		}
	}
	b.ReportMetric(float64(count), "matches")
}

// BenchmarkSubjectBuild times technology decomposition of the suite's
// largest circuit. Run with -benchmem: the allocs/op column is the
// arena regression gate — the SoA core should allocate per growth
// step, not per node.
func BenchmarkSubjectBuild(b *testing.B) {
	nw := bench.C7552()
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		g, err := subject.FromNetwork(nw)
		if err != nil {
			b.Fatal(err)
		}
		nodes = g.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// BenchmarkWriteBLIF times blif.Write on a gate network,
// RandomDAG(32, 3000, 7), and on a LUT network, C6288 mapped lut-area
// at k 6 (the render in a LUT-mode /map response). SetBytes turns the
// result into render MB/s; -benchmem gives bytes and allocs per render.
func BenchmarkWriteBLIF(b *testing.B) {
	lut, err := Map(context.Background(), Input{Network: bench.C6288()}, MapOptions{Mode: ModeLUTArea, K: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		nw   *network.Network
	}{
		{"RandomDAG32x3000", bench.RandomDAG(32, 3000, 7)},
		{"C6288-lut-area-k6", lut.Network},
	} {
		b.Run(in.name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := blif.Write(&buf, in.nw); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(buf.Len()))
		})
	}
}

// BenchmarkIngestStream times the streaming BLIF-to-subject path on a
// generated mult64 (68k subject nodes): bytes in, arena out, no
// network.Network in between. SetBytes turns the result into ingest
// MB/s; -benchmem gives the allocs/op regression column.
func BenchmarkIngestStream(b *testing.B) {
	var buf bytes.Buffer
	if err := bench.StreamMult(&buf, 64); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	rd := &blif.Reader{}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	nodes := 0
	for i := 0; i < b.N; i++ {
		g, err := rd.StreamSubject(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		nodes = g.NumNodes()
	}
	b.ReportMetric(float64(nodes), "nodes")
}

// TestArenaBuildAllocs asserts the arena property directly: appending
// nodes to a Reserve'd graph performs no per-node heap allocation —
// only the strash table's occasional doubling allocates, which
// amortizes to well under one hundredth of an allocation per node.
func TestArenaBuildAllocs(t *testing.T) {
	const rounds = 1 << 14
	g := subject.NewGraph("arena", true)
	g.Reserve(4 * rounds)
	a, err := g.AddPI("a")
	if err != nil {
		t.Fatal(err)
	}
	prev := a
	allocs := testing.AllocsPerRun(rounds, func() {
		// Two fresh nodes per run: an inverter and a NAND neither of
		// which can hit the strash table.
		prev = g.Nand(prev, g.Not(prev))
	})
	perNode := allocs / 2
	if perNode > 0.01 {
		t.Fatalf("arena build allocates %.4f allocations per node, want amortized zero (<= 0.01)", perNode)
	}
	t.Logf("arena build: %d nodes, %.5f allocs/node", g.NumNodes(), perNode)
}

// TestIngestStreamAllocs bounds the streaming reader's heap
// allocations per declared signal (input or .names output) on a
// generated mult64. A .names declaration goes from bytes to subject
// nodes through reused buffers; what remains is one name string per
// signal, the signal table's growth and the arena's doublings.
func TestIngestStreamAllocs(t *testing.T) {
	var buf bytes.Buffer
	if err := bench.StreamMult(&buf, 64); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	signals := bytes.Count(data, []byte("\n.names ")) + 2*64
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := (&blif.Reader{}).StreamSubject(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	perSignal := allocs / float64(signals)
	if perSignal > 1.25 {
		t.Fatalf("streaming ingest makes %.0f allocations for %d signals (%.2f per signal), want <= 1.25", allocs, signals, perSignal)
	}
	t.Logf("streaming ingest: %d signals, %.0f allocs, %.2f allocs/signal", signals, allocs, perSignal)
}

// BenchmarkVerify times the 64-way simulation equivalence check used
// to validate every mapping.
func BenchmarkVerify(b *testing.B) {
	nw := bench.ALU(8)
	res := mapNet(b, nw, MapOptions{Library: compile(b, Lib2())})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Verify(nw, res.Netlist); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyMapped times the equivalence check of a 3000-gate
// random DAG mapped onto 44-3 (random regime: 32 inputs, 64 rounds)
// beside the mapping it checks, so one run shows whether verification
// still costs more than the mapping. Run with -benchmem.
func BenchmarkVerifyMapped(b *testing.B) {
	nw := bench.RandomDAG(32, 3000, 7)
	opt := MapOptions{Library: compile(b, Lib443())}
	res := mapNet(b, nw, opt)
	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mapNet(b, nw, opt)
		}
	})
	b.Run("verify", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := Verify(nw, res.Netlist); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLUTTradeoff sweeps the depth slack in the priority-cut
// area mode (study E4: the area/depth trade-off of the conclusion's
// reference [3]).
func BenchmarkLUTTradeoff(b *testing.B) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	for slack := 0; slack <= 3; slack++ {
		b.Run(fmt.Sprintf("slack%d", slack), func(b *testing.B) {
			var depth, luts int
			for i := 0; i < b.N; i++ {
				res, err := cutmap.Map(g, cutmap.Options{K: 4, Mode: cutmap.ModeArea, Slack: slack})
				if err != nil {
					b.Fatal(err)
				}
				depth, luts = res.Depth, res.LUTs
			}
			b.ReportMetric(float64(depth), "depth")
			b.ReportMetric(float64(luts), "LUTs")
		})
	}
}

// BenchmarkBuffering measures the fanout-buffering post-pass (study
// E3) on a DAG-covered netlist.
func BenchmarkBuffering(b *testing.B) {
	lib := libgen.Lib2()
	res := mapNet(b, bench.C5315(), MapOptions{Library: compile(b, lib)})
	buffer := lib.Buffer()
	b.ResetTimer()
	var loaded float64
	for i := 0; i < b.N; i++ {
		buffered, err := res.Netlist.InsertBuffers(buffer, 16)
		if err != nil {
			b.Fatal(err)
		}
		t, err := buffered.DelayLoaded(mapping.LoadOptions{})
		if err != nil {
			b.Fatal(err)
		}
		loaded = t.Delay
	}
	b.ReportMetric(loaded, "loadedDelay")
}

// BenchmarkChoices measures choice-encoded mapping (study E8) against
// plain DAG covering on the multiplier.
func BenchmarkChoices(b *testing.B) {
	nw := bench.ArrayMultiplier(8)
	cl := compile(b, Lib441())
	for _, mode := range []Mode{ModeDAG, ModeChoices} {
		b.Run(mode.String(), func(b *testing.B) {
			var delay float64
			for i := 0; i < b.N; i++ {
				delay = mapNet(b, nw, MapOptions{Mode: mode, Library: cl, Delay: UnitDelay}).Delay
			}
			b.ReportMetric(delay, "delay")
		})
	}
}

// BenchmarkSeqMap times Pan-Liu joint sequential mapping (study E11)
// against the three-step flow.
func BenchmarkSeqMap(b *testing.B) {
	nw := bench.PipelinedALU(8, 2)
	b.Run("joint", func(b *testing.B) {
		var period int
		for i := 0; i < b.N; i++ {
			res, err := MapSequentialLUT(nw, 4)
			if err != nil {
				b.Fatal(err)
			}
			period = res.Period
		}
		b.ReportMetric(float64(period), "period")
	})
	opt := MapOptions{Library: compile(b, Lib2())}
	b.Run("threestep", func(b *testing.B) {
		var period float64
		for i := 0; i < b.N; i++ {
			res, err := MapSequential(context.Background(), nw, opt)
			if err != nil {
				b.Fatal(err)
			}
			period = res.PeriodAfter
		}
		b.ReportMetric(period, "period")
	})
}
