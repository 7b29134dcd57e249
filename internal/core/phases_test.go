package core

import (
	"strings"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/match"
	"dagcover/internal/obs"
	"dagcover/internal/obs/obstest"
	"dagcover/internal/subject"
)

// TestPhaseBreakdownDeterminism pins the Stats contract: repeated runs
// on one matcher give byte-identical Counters, while the Phases
// durations — which legitimately vary run to run — remain structurally
// sound: non-negative, with labeling time and the total positive.
func TestPhaseBreakdownDeterminism(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	var first Counters
	for run := 0; run < 3; run++ {
		res, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == 0 {
			first = res.Stats.Counters
		} else if res.Stats.Counters != first {
			t.Errorf("run %d: counters %+v, first run %+v", run, res.Stats.Counters, first)
		}
		p := res.Stats.Phases
		if p.Label <= 0 {
			t.Errorf("run %d: label time %v, want > 0", run, p.Label)
		}
		if p.Area < 0 || p.Cover < 0 || p.Emit < 0 {
			t.Errorf("run %d: negative phase duration %+v", run, p)
		}
		if p.Total() <= 0 {
			t.Errorf("run %d: Total() = %v, want > 0", run, p.Total())
		}
	}
}

// TestAreaRecoveryFillsAreaPhase checks the Area duration is attributed
// only when the area-estimate pass runs.
func TestAreaRecoveryFillsAreaPhase(t *testing.T) {
	g, err := subject.FromNetwork(bench.RippleAdder(16))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	plain, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Stats.Phases.Area != 0 {
		t.Errorf("without AreaRecovery Area = %v, want 0", plain.Stats.Phases.Area)
	}
	rec, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, AreaRecovery: true})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Stats.Phases.Area <= 0 {
		t.Errorf("with AreaRecovery Area = %v, want > 0", rec.Stats.Phases.Area)
	}
}

// TestMapTraceSpans checks that a traced run records the pipeline's
// named phase spans with counter args, attributes matcher probes per
// signature bucket, exports a schema-valid Chrome trace — and that
// tracing does not perturb the mapping.
func TestMapTraceSpans(t *testing.T) {
	g, err := subject.FromNetwork(bench.ArrayMultiplier(8))
	if err != nil {
		t.Fatal(err)
	}
	shared, _, err := subject.CompileLibrary(libgen.Lib443(), subject.CompileOptions{Share: true})
	if err != nil {
		t.Fatal(err)
	}
	m := match.NewMatcher(shared)
	quiet, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}})
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.New()
	res, err := Map(g, m, Options{Class: match.Standard, Delay: genlib.UnitDelay{}, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay != quiet.Delay || res.Stats.Counters != quiet.Stats.Counters {
		t.Errorf("tracing perturbed the mapping")
	}
	byName := map[string]int{}
	for _, e := range tr.Events() {
		byName[e.Name]++
	}
	for _, want := range []string{"core.label", "core.cover", "core.emit", "match.signature_buckets"} {
		if byName[want] == 0 {
			t.Errorf("no %q event; got %v", want, byName)
		}
	}
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	if err := obstest.ValidateChromeTrace([]byte(sb.String())); err != nil {
		t.Errorf("trace fails schema validation: %v", err)
	}
}
