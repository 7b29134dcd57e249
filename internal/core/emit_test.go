package core

import (
	"bytes"
	"context"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/treemap"
)

// emitLibs are the paper's three libraries with the delay model each
// table uses.
var emitLibs = []struct {
	name  string
	lib   func() *genlib.Library
	delay genlib.DelayModel
}{
	{"lib2", libgen.Lib2, genlib.IntrinsicDelay{}},
	{"44-1", libgen.Lib441, genlib.UnitDelay{}},
	{"44-3", libgen.Lib443, genlib.UnitDelay{}},
}

// TestRetimingMatchesNetlistDelay pins the re-timing done during
// emission: Result.Delay must equal a from-scratch Netlist.Delay of
// the emitted netlist bit for bit, on the quick ISCAS set x three
// libraries, with and without PI arrival times, area recovery and a
// relaxed required time. Tree covering re-times the same way and is
// held to the same rule.
func TestRetimingMatchesNetlistDelay(t *testing.T) {
	circuits := []bench.Circuit{{Name: "C432", Network: bench.C432()}, {Name: "C6288", Network: bench.C6288()}}
	for _, lc := range emitLibs {
		shared, _, err := subject.CompileLibrary(lc.lib(), subject.CompileOptions{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		trees, _, err := subject.CompileLibrary(lc.lib(), subject.CompileOptions{Share: false})
		if err != nil {
			t.Fatal(err)
		}
		m, tm := match.NewMatcher(shared), match.NewMatcher(trees)
		for _, c := range circuits {
			g, err := subject.FromNetwork(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			// Fractional, seeded arrivals exercise float rounding.
			rng := rand.New(rand.NewSource(int64(len(c.Name))))
			arrivals := map[string]float64{}
			for _, pi := range g.PIs {
				arrivals[g.NameOf(pi)] = rng.Float64() * 3
			}
			opt, err := Map(g, m, Options{Class: match.Standard, Delay: lc.delay})
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range []struct {
				name string
				opt  Options
			}{
				{"plain", Options{}},
				{"arrivals", Options{Arrivals: arrivals}},
				{"area", Options{AreaRecovery: true}},
				{"area-relaxed", Options{AreaRecovery: true, RequiredTime: opt.Delay * 1.3}},
				{"area-relaxed-arrivals", Options{AreaRecovery: true, RequiredTime: opt.Delay*1.3 + 3, Arrivals: arrivals}},
			} {
				o := tc.opt
				o.Class, o.Delay = match.Standard, lc.delay
				res, err := Map(g, m, o)
				if err != nil {
					t.Fatalf("%s x %s %s: %v", c.Name, lc.name, tc.name, err)
				}
				sta, err := res.Netlist.Delay(lc.delay, o.Arrivals)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(res.Delay) != math.Float64bits(sta.Delay) {
					t.Errorf("%s x %s %s: Result.Delay %v (%x), Netlist.Delay %v (%x)", c.Name, lc.name, tc.name,
						res.Delay, math.Float64bits(res.Delay), sta.Delay, math.Float64bits(sta.Delay))
				}
				tres, err := treemap.Map(g, tm, treemap.Options{Delay: lc.delay, Arrivals: o.Arrivals})
				if err != nil {
					t.Fatal(err)
				}
				tsta, err := tres.Netlist.Delay(lc.delay, o.Arrivals)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(tres.Delay) != math.Float64bits(tsta.Delay) {
					t.Errorf("%s x %s %s: treemap Delay %v, Netlist.Delay %v", c.Name, lc.name, tc.name, tres.Delay, tsta.Delay)
				}
			}
		}
	}
}

// streamedSubject ingests a streaming benchmark family.
func streamedSubject(tb testing.TB, family string) *subject.Graph {
	tb.Helper()
	gen, ok := bench.StreamFamily(family)
	if !ok {
		tb.Fatalf("unknown family %q", family)
	}
	var buf bytes.Buffer
	if err := gen(&buf); err != nil {
		tb.Fatal(err)
	}
	g, err := (&blif.Reader{}).StreamSubject(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// BenchmarkEmitRender times the output path alone — backward
// construction (cover, emission through the builder, re-timing) and
// WriteBLIF — on labels computed once, so -benchmem counts only its
// allocations. Reports emitNs and renderNs per operation.
func BenchmarkEmitRender(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	m.SetMemoEnabled(true)
	for _, tc := range []struct {
		name  string
		graph func() *subject.Graph
	}{
		{"C6288", func() *subject.Graph {
			g, err := subject.FromNetwork(bench.C6288())
			if err != nil {
				b.Fatal(err)
			}
			return g
		}},
		{"alumesh21x21", func() *subject.Graph { return streamedSubject(b, "alumesh21x21") }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			g := tc.graph()
			opt := Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Ctx: context.Background()}
			labeled, err := Map(g, m, opt)
			if err != nil {
				b.Fatal(err)
			}
			classMax := make([]int, g.NumNodes())
			for i := range classMax {
				classMax[i] = i
			}
			var emit, render time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := &Result{Labels: labeled.Labels}
				t0 := time.Now()
				if err := construct(g, m, opt, res, classMax); err != nil {
					b.Fatal(err)
				}
				t1 := time.Now()
				if err := res.Netlist.WriteBLIF(io.Discard); err != nil {
					b.Fatal(err)
				}
				emit += t1.Sub(t0)
				render += time.Since(t1)
				if res.Delay != labeled.Delay {
					b.Fatalf("delay %v, want %v", res.Delay, labeled.Delay)
				}
			}
			b.ReportMetric(float64(emit.Nanoseconds())/float64(b.N), "emitNs")
			b.ReportMetric(float64(render.Nanoseconds())/float64(b.N), "renderNs")
		})
	}
}
