package supergate_test

import (
	"context"
	"testing"

	"dagcover"
	"dagcover/internal/bench"
	"dagcover/internal/libgen"
	"dagcover/internal/supergate"
	"dagcover/internal/verify"
)

// unitDAG compiles lib and returns unit-delay DAG covering over it.
func unitDAG(t testing.TB, lib *dagcover.Library) func(*dagcover.Network) (*dagcover.MapResult, error) {
	t.Helper()
	cl, err := dagcover.CompileLibrary(lib)
	if err != nil {
		t.Fatalf("compiling %s: %v", lib.Name, err)
	}
	return func(nw *dagcover.Network) (*dagcover.MapResult, error) {
		return dagcover.Map(context.Background(), dagcover.Input{Network: nw},
			dagcover.MapOptions{Library: cl, Delay: dagcover.UnitDelay})
	}
}

// TestEndToEndGapClosure reproduces the paper's richness trend with
// manufactured richness: 44-1 enriched with supergates must close at
// least half of the DAG-covering delay gap between 44-1 and 44-3
// (unit delay, Tables 2/3) on at least 3 of the 5 benchmark
// circuits, and every supergate mapping must verify against the
// source network.
func TestEndToEndGapClosure(t *testing.T) {
	res, err := supergate.Generate(libgen.Lib441(), supergate.Options{
		MaxInputs: 5, MaxLeaves: 6, MaxDepth: 3, MaxGates: 512})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	t.Logf("generated %d supergates: %+v", res.Stats.Emitted, res.Stats)

	base := unitDAG(t, libgen.Lib441())
	super := unitDAG(t, res.Library)
	rich := unitDAG(t, libgen.Lib443())

	closed := 0
	for _, c := range bench.Suite() {
		rb, err := base(c.Network)
		if err != nil {
			t.Fatalf("%s 44-1: %v", c.Name, err)
		}
		rs, err := super(c.Network)
		if err != nil {
			t.Fatalf("%s 44-1+sg: %v", c.Name, err)
		}
		rr, err := rich(c.Network)
		if err != nil {
			t.Fatalf("%s 44-3: %v", c.Name, err)
		}
		if err := verify.Mapped(c.Network, rs.Netlist, verify.Options{}); err != nil {
			t.Fatalf("%s: supergate mapping failed equivalence check: %v", c.Name, err)
		}
		gap := rb.Delay - rr.Delay
		got := rb.Delay - rs.Delay
		t.Logf("%s: 44-1=%.0f 44-1+sg=%.0f 44-3=%.0f (closed %.0f%% of gap)",
			c.Name, rb.Delay, rs.Delay, rr.Delay, 100*got/gap)
		if gap > 0 && got >= gap/2 {
			closed++
		}
	}
	if closed < 3 {
		t.Fatalf("supergates closed >= half the 44-1 vs 44-3 delay gap on only %d/5 circuits", closed)
	}
}

// TestSupergateCISmoke is the cheap gate run in CI under -race: tiny
// generation bounds on Lib441, one benchmark mapped, equivalence
// checked, and the mapped delay must beat plain 44-1.
func TestSupergateCISmoke(t *testing.T) {
	res, err := supergate.Generate(libgen.Lib441(), supergate.Options{
		MaxInputs: 4, MaxLeaves: 5, MaxDepth: 2, MaxGates: 128})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	base := unitDAG(t, libgen.Lib441())
	super := unitDAG(t, res.Library)
	c := bench.Suite()[0] // C2670
	rb, err := base(c.Network)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := super(c.Network)
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.Mapped(c.Network, rs.Netlist, verify.Options{}); err != nil {
		t.Fatalf("%s: supergate mapping failed equivalence check: %v", c.Name, err)
	}
	if rs.Delay >= rb.Delay {
		t.Fatalf("%s: supergate delay %.0f did not improve on 44-1 delay %.0f",
			c.Name, rs.Delay, rb.Delay)
	}
	t.Logf("%s: 44-1=%.0f 44-1+sg=%.0f with %d supergates", c.Name, rb.Delay, rs.Delay, res.Stats.Emitted)
}
