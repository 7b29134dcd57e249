package sta

import (
	"math"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/mapping"
	"dagcover/internal/match"
	"dagcover/internal/subject"
)

// mapped returns a DAG-covered netlist of an 8-bit adder under lib2.
func mapped(t *testing.T) *mapping.Netlist {
	t.Helper()
	lib := libgen.Lib2()
	pats, _, err := subject.CompileLibrary(lib, subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := subject.FromNetwork(bench.RippleAdder(8))
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Map(g, match.NewMatcher(pats), core.Options{Class: match.Standard})
	if err != nil {
		t.Fatal(err)
	}
	return res.Netlist
}

func TestAnalyzeBasics(t *testing.T) {
	nl := mapped(t)
	rep, err := Analyze(nl, genlib.IntrinsicDelay{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With the default required time, the worst slack is exactly 0.
	if math.Abs(rep.WorstSlack) > 1e-9 {
		t.Errorf("worst slack = %v, want 0", rep.WorstSlack)
	}
	if rep.CriticalPort == "" || rep.Delay <= 0 {
		t.Errorf("report incomplete: %+v", rep.CriticalPort)
	}
	// Slack is non-negative everywhere under the default target.
	for net, s := range rep.Slack {
		if s < -1e-9 && !math.IsInf(s, -1) {
			t.Errorf("net %q has negative slack %v under its own worst arrival", net, s)
		}
	}
	// Arrival + slack == required on every driven net with finite
	// required time.
	for net, a := range rep.Arrival {
		r := rep.Required[net]
		if math.IsInf(r, 1) {
			continue
		}
		if math.Abs(a+rep.Slack[net]-r) > 1e-9 {
			t.Errorf("net %q: arrival %v + slack %v != required %v", net, a, rep.Slack[net], r)
		}
	}
}

func TestAnalyzeTightTarget(t *testing.T) {
	nl := mapped(t)
	base, err := Analyze(nl, genlib.IntrinsicDelay{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tight, err := Analyze(nl, genlib.IntrinsicDelay{}, Options{RequiredTime: base.Delay - 1})
	if err != nil {
		t.Fatal(err)
	}
	if tight.WorstSlack > -1+1e-9 {
		t.Errorf("worst slack under tightened target = %v, want about -1", tight.WorstSlack)
	}
}

func TestWorstPaths(t *testing.T) {
	nl := mapped(t)
	paths, err := WorstPaths(nl, genlib.IntrinsicDelay{}, Options{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("paths = %d", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		if paths[i].Slack < paths[i-1].Slack {
			t.Errorf("paths not sorted by slack")
		}
	}
	// The most critical path's cell delays must sum to its endpoint
	// arrival (PI arrivals are 0 here).
	crit := paths[0]
	if len(crit.Cells) == 0 {
		t.Fatal("empty critical path")
	}
	if math.Abs(crit.Slack) > 1e-9 {
		t.Errorf("most critical slack = %v, want 0", crit.Slack)
	}
	// Path connectivity: each cell's output feeds some input of the
	// next cell.
	for i := 0; i+1 < len(crit.Cells); i++ {
		found := false
		for _, in := range crit.Cells[i+1].Inputs {
			if in == crit.Cells[i].Output {
				found = true
			}
		}
		if !found {
			t.Errorf("path cells %d and %d not connected", i, i+1)
		}
	}
}
