package experiments

import (
	"testing"

	"dagcover/internal/bench"
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
	for _, spec := range []TableSpec{Table1(), Table2(), Table3()} {
		rows, err := Run(spec, Options{Verify: true, Circuits: suite})
		if err != nil {
			t.Fatalf("table %s: %v", spec.ID, err)
		}
		for _, r := range rows {
			if r.DAGDelay > r.TreeDelay+1e-9 {
				t.Errorf("table %s %s: DAG (%v) worse than tree (%v)",
					spec.ID, r.Circuit, r.DAGDelay, r.TreeDelay)
			}
		}
		t.Logf("table %s:\n%s", spec.ID, Format(spec, rows))
	}
}
