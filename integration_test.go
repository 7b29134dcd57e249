package dagcover

import (
	"context"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/experiments"
	"dagcover/internal/verify"
)

// TestIntegrationFullSuite runs the complete pipeline — generate,
// decompose, map both ways under all three libraries, and verify
// functional equivalence — over the extended 10-circuit suite.
// Skipped under -short.
func TestIntegrationFullSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite integration test skipped in -short mode")
	}
	suite := bench.FullSuite()
	for _, spec := range []experiments.TableSpec{
		experiments.Table1(),
		experiments.Table2(),
		experiments.Table3(),
	} {
		rows, err := experiments.Run(spec, experiments.Options{Verify: true, Circuits: suite})
		if err != nil {
			t.Fatalf("table %s: %v", spec.ID, err)
		}
		for _, r := range rows {
			if r.DAGDelay > r.TreeDelay+1e-9 {
				t.Errorf("table %s %s: DAG (%v) worse than tree (%v)",
					spec.ID, r.Circuit, r.DAGDelay, r.TreeDelay)
			}
		}
		t.Logf("table %s:\n%s", spec.ID, experiments.Format(spec, rows))
	}
}

// TestIntegrationLUTMappers cross-checks FlowMap and the priority-cut
// mapper on the full suite and verifies every LUT netlist.
func TestIntegrationLUTMappers(t *testing.T) {
	if testing.Short() {
		t.Skip("LUT integration test skipped in -short mode")
	}
	for _, c := range bench.FullSuite() {
		fm, err := Map(context.Background(), Input{Network: c.Network}, MapOptions{Mode: ModeLUT, K: 4})
		if err != nil {
			t.Fatalf("%s: flowmap: %v", c.Name, err)
		}
		if err := VerifyNetworks(c.Network, fm.Network); err != nil {
			t.Fatalf("%s: flowmap: %v", c.Name, err)
		}
		cm, err := Map(context.Background(), Input{Network: c.Network}, MapOptions{Mode: ModeLUTArea, K: 4})
		if err != nil {
			t.Fatalf("%s: cutmap: %v", c.Name, err)
		}
		if err := VerifyNetworks(c.Network, cm.Network); err != nil {
			t.Fatalf("%s: cutmap: %v", c.Name, err)
		}
		if cm.OptimalDepth < fm.Depth {
			t.Errorf("%s: cutmap claims depth %d below FlowMap's optimum %d",
				c.Name, cm.OptimalDepth, fm.Depth)
		}
		t.Logf("%s: flowmap depth %d (%d LUTs), cutmap slack-0 depth %d (%d LUTs)",
			c.Name, fm.Depth, fm.LUTs, cm.Depth, cm.LUTs)
	}
}

// TestIntegrationSequential maps and retimes every sequential
// generator.
func TestIntegrationSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("sequential integration test skipped in -short mode")
	}
	opt := MapOptions{Library: compile(t, Lib2())}
	for _, cfg := range []struct {
		name string
		nw   *Network
	}{
		{"correlator8", bench.Correlator(8)},
		{"correlator24", bench.Correlator(24)},
		{"palu4x1", bench.PipelinedALU(4, 1)},
		{"palu8x3", bench.PipelinedALU(8, 3)},
	} {
		res, err := MapSequential(context.Background(), cfg.nw, opt)
		if err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		if res.PeriodAfter > res.PeriodBefore+1e-9 {
			t.Errorf("%s: retiming worsened period %v -> %v",
				cfg.name, res.PeriodBefore, res.PeriodAfter)
		}
		if err := res.Network.Check(); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		// The mapped-and-retimed circuit must be cycle-accurately
		// equivalent to the original sequential circuit.
		if err := verify.Sequential(cfg.nw, res.Network, verify.SeqOptions{Cycles: 80}); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		t.Logf("%s: comb delay %.2f, period %.2f -> %.2f",
			cfg.name, res.Comb.Delay, res.PeriodBefore, res.PeriodAfter)
	}
}
