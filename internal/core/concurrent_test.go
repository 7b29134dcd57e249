package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/subject"
	"dagcover/internal/verify"
)

// netlistSig serializes a netlist's cell list in emission order so two
// mappings can be compared bit-for-bit.
func netlistSig(nl *mapping.Netlist) string {
	var b strings.Builder
	for _, c := range nl.Cells {
		fmt.Fprintf(&b, "%s:%s<%s;", c.Gate.Name, c.Output, strings.Join(c.Inputs, ","))
	}
	return b.String()
}

// suiteLibs pairs each library with the delay model its paper table
// uses.
func suiteLibs() []struct {
	name  string
	lib   *genlib.Library
	delay genlib.DelayModel
} {
	return []struct {
		name  string
		lib   *genlib.Library
		delay genlib.DelayModel
	}{
		{"lib2", libgen.Lib2(), genlib.IntrinsicDelay{}},
		{"44-1", libgen.Lib441(), genlib.UnitDelay{}},
		{"44-3", libgen.Lib443(), genlib.UnitDelay{}},
	}
}

// mapConcurrently maps g on n goroutines at once, each with its own
// clone of m (choices, when declared, set on every clone), sharing the
// subject graph, the compiled patterns and the options.
func mapConcurrently(t *testing.T, g *subject.Graph, m *match.Matcher, opt Options, n int) []*Result {
	t.Helper()
	results := make([]*Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := m.Clone()
			c.SetChoices(opt.Choices)
			results[i], errs[i] = Map(g, c, opt)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent run %d: %v", i, err)
		}
	}
	return results
}

// sameMapping reports how got differs from want: delay, cell list and
// work counters must all be identical.
func sameMapping(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Delay != want.Delay {
		t.Errorf("%s: delay %v, serial %v", label, got.Delay, want.Delay)
	}
	if gs, ws := netlistSig(got.Netlist), netlistSig(want.Netlist); gs != ws {
		t.Errorf("%s: cell lists differ:\ngot:    %.200s\nserial: %.200s", label, gs, ws)
	}
	if got.Stats.Counters != want.Stats.Counters {
		t.Errorf("%s: stats %+v, serial %+v", label, got.Stats.Counters, want.Stats.Counters)
	}
}

// TestParallelMatchesSerial is the determinism contract under
// concurrent use: for every bench circuit x library x match class, two
// Map calls running at once on one shared subject graph and one
// compiled pattern set reproduce the serial mapping bit-for-bit — same
// delay, same cell list, same stats — and the netlist is functionally
// equivalent to the source network. Run with -race to check that
// mapping only reads the shared graph and patterns.
func TestParallelMatchesSerial(t *testing.T) {
	circuits := bench.FullSuite()
	libs := suiteLibs()
	if testing.Short() {
		circuits = circuits[:3]
		libs = libs[1:2]
	}
	for _, lc := range libs {
		shared, _, err := subject.CompileLibrary(lc.lib, subject.CompileOptions{Share: true})
		if err != nil {
			t.Fatal(err)
		}
		trees, _, err := subject.CompileLibrary(lc.lib, subject.CompileOptions{Share: false})
		if err != nil {
			t.Fatal(err)
		}
		matchers := map[match.Class]*match.Matcher{
			match.Exact:    match.NewMatcher(trees),
			match.Standard: match.NewMatcher(shared),
		}
		for _, c := range circuits {
			g, err := subject.FromNetwork(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			for _, class := range []match.Class{match.Exact, match.Standard} {
				t.Run(fmt.Sprintf("%s/%s/%v", lc.name, c.Name, class), func(t *testing.T) {
					opt := Options{Class: class, Delay: lc.delay}
					serial, err := Map(g, matchers[class], opt)
					if err != nil {
						t.Fatal(err)
					}
					for i, res := range mapConcurrently(t, g, matchers[class], opt, 2) {
						sameMapping(t, fmt.Sprintf("concurrent run %d", i), res, serial)
					}
					if err := verify.Mapped(c.Network, serial.Netlist, verify.Options{}); err != nil {
						t.Errorf("netlist not equivalent: %v", err)
					}
				})
			}
		}
	}
}

// TestParallelWorkerCountInvariance sweeps the number of concurrent
// Map calls on one circuit: every count must give the serial bytes.
func TestParallelWorkerCountInvariance(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	m.SetMemoEnabled(true)
	opt := Options{Class: match.Standard, Delay: genlib.UnitDelay{}}
	ref, err := Map(g, m.Clone(), opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{2, 3, 4, 7} {
		for i, res := range mapConcurrently(t, g, m, opt, n) {
			sameMapping(t, fmt.Sprintf("%d callers, run %d", n, i), res, ref)
		}
	}
}

// TestParallelWithChoices checks concurrent choice mapping: Map calls
// running at once on one choice-encoded graph, sharing its Choices,
// reproduce the serial choice mapping exactly.
func TestParallelWithChoices(t *testing.T) {
	shared, _, err := subject.CompileLibrary(libgen.Lib441(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	base := match.NewMatcher(shared)
	circuits := []bench.Circuit{
		{Name: "adder16", Network: bench.RippleAdder(16)},
		{Name: "mult6", Network: bench.ArrayMultiplier(6)},
		{Name: "alu4", Network: bench.ALU(4)},
	}
	for _, c := range circuits {
		t.Run(c.Name, func(t *testing.T) {
			g, choices, err := subject.FromNetworkWithChoices(c.Network)
			if err != nil {
				t.Fatal(err)
			}
			m := base.Clone()
			m.SetChoices(choices)
			opt := Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Choices: choices}
			serial, err := Map(g, m, opt)
			if err != nil {
				t.Fatal(err)
			}
			for i, res := range mapConcurrently(t, g, base, opt, 2) {
				sameMapping(t, fmt.Sprintf("concurrent run %d", i), res, serial)
			}
			if err := verify.Mapped(c.Network, serial.Netlist, verify.Options{}); err != nil {
				t.Errorf("choice netlist not equivalent: %v", err)
			}
		})
	}
}

// BenchmarkLabelAllocs guards the hot-loop allocation budget: labeling
// the multiplier under 44-3. The scratch staging in bestMatch keeps
// allocations near one Match per node instead of one per improvement.
func BenchmarkLabelAllocs(b *testing.B) {
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		b.Fatal(err)
	}
	m := match.NewMatcher(shared)
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := &Result{Labels: make([]Label, g.NumNodes())}
		classMax := make([]int, g.NumNodes())
		for j := range classMax {
			classMax[j] = j
		}
		if err := labelSerial(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Ctx: context.Background()}, res, classMax); err != nil {
			b.Fatal(err)
		}
	}
}
