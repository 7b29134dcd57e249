package experiments

// One benchmark per table of the paper and per ablation benchmark of
// DESIGN.md. Each iteration times exactly one mapping run through
// dagcover.Map on a prebuilt subject graph and compiled library (the
// CPU column of the paper's tables); custom metrics report the mapped
// delay/area/cells beside it.
//
//	go test -bench=BenchmarkTable3 -benchtime=1x ./internal/experiments

import (
	"fmt"
	"testing"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/libgen"
)

// subjectOf builds the subject graph of a benchmark circuit.
func subjectOf(b *testing.B, c bench.Circuit) *dagcover.SubjectGraph {
	b.Helper()
	g, err := dagcover.BuildSubject(c.Network)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// compiled compiles a library or fails the benchmark.
func compiled(b *testing.B, lib *dagcover.Library) *dagcover.CompiledLibrary {
	b.Helper()
	cl, err := dagcover.CompileLibrary(lib)
	if err != nil {
		b.Fatal(err)
	}
	return cl
}

// benchMap times one mapping run per iteration and returns the last
// result.
func benchMap(b *testing.B, g *dagcover.SubjectGraph, opt dagcover.MapOptions) *dagcover.MapResult {
	var res *dagcover.MapResult
	for i := 0; i < b.N; i++ {
		var err error
		if res, err = mapSubject(g, opt); err != nil {
			b.Fatal(err)
		}
	}
	return res
}

func benchTable(b *testing.B, spec TableSpec) {
	cl := compiled(b, spec.Library)
	for _, c := range bench.Suite() {
		g := subjectOf(b, c)
		b.Run(c.Name+"/tree", func(b *testing.B) {
			res := benchMap(b, g, dagcover.MapOptions{Mode: dagcover.ModeTree, Library: cl, Delay: spec.Delay})
			b.ReportMetric(res.Delay, "delay")
			b.ReportMetric(res.Area, "area")
			b.ReportMetric(float64(res.Cells), "cells")
		})
		b.Run(c.Name+"/dag", func(b *testing.B) {
			res := benchMap(b, g, dagcover.MapOptions{Library: cl, Delay: spec.Delay})
			b.ReportMetric(res.Delay, "delay")
			b.ReportMetric(res.Area, "area")
			b.ReportMetric(float64(res.Cells), "cells")
			b.ReportMetric(float64(res.DuplicatedNodes), "dup")
		})
	}
}

// BenchmarkTable1 regenerates Table 1: tree vs DAG covering under the
// lib2-like library with intrinsic pin delays.
func BenchmarkTable1(b *testing.B) { benchTable(b, Table1()) }

// BenchmarkTable2 regenerates Table 2: the 7-gate 44-1 library with
// unit delay.
func BenchmarkTable2(b *testing.B) { benchTable(b, Table2()) }

// BenchmarkTable3 regenerates Table 3: the rich 44-3 library with
// unit delay (the paper's headline result).
func BenchmarkTable3(b *testing.B) { benchTable(b, Table3()) }

// BenchmarkAblationMatchClass compares standard vs extended matching
// cost on C2670 under 44-1 (footnote 3: quality is equal; this
// measures the price of the larger search space).
func BenchmarkAblationMatchClass(b *testing.B) {
	spec := Table2()
	cl := compiled(b, spec.Library)
	g := subjectOf(b, bench.Circuit{Name: "C2670", Network: bench.C2670()})
	for _, class := range []dagcover.MatchClass{dagcover.MatchStandard, dagcover.MatchExtended} {
		b.Run(class.String(), func(b *testing.B) {
			res := benchMap(b, g, dagcover.MapOptions{Library: cl, Class: class, Delay: spec.Delay})
			b.ReportMetric(res.Delay, "delay")
		})
	}
}

// BenchmarkAblationLibraryRichness sweeps the maximum AOI group size
// (ablation A2) on an 8x8 multiplier.
func BenchmarkAblationLibraryRichness(b *testing.B) {
	g := subjectOf(b, bench.Circuit{Name: "mult8", Network: bench.ArrayMultiplier(8)})
	for gs := 1; gs <= 4; gs++ {
		lib := libgen.Rich(fmt.Sprintf("rich-%d", gs), libgen.RichOptions{MaxGroupSize: gs})
		cl := compiled(b, lib)
		b.Run(fmt.Sprintf("groupsize%d", gs), func(b *testing.B) {
			res := benchMap(b, g, dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay})
			b.ReportMetric(res.Delay, "delay")
			b.ReportMetric(float64(len(lib.Gates)), "gates")
		})
	}
}

// BenchmarkAblationAreaRecovery measures the cost and benefit of the
// slack-driven area recovery pass (ablation A3).
func BenchmarkAblationAreaRecovery(b *testing.B) {
	cl := compiled(b, dagcover.Lib2())
	g := subjectOf(b, bench.Circuit{Name: "C5315", Network: bench.C5315()})
	for _, mode := range []struct {
		name     string
		recovery bool
	}{{"plain", false}, {"recovery", true}} {
		b.Run(mode.name, func(b *testing.B) {
			res := benchMap(b, g, dagcover.MapOptions{Library: cl, Delay: dagcover.IntrinsicDelay, AreaRecovery: mode.recovery})
			b.ReportMetric(res.Area, "area")
		})
	}
}
