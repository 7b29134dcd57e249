package experiments

import (
	"strings"
	"testing"

	"dagcover/internal/bench"
)

// smallSuite keeps the unit tests fast; the full tables run in the
// benchmark harness and cmd/experiments.
func smallSuite() []bench.Circuit {
	return []bench.Circuit{
		{Name: "adder8", Network: bench.RippleAdder(8)},
		{Name: "mult6", Network: bench.ArrayMultiplier(6)},
		{Name: "alu4", Network: bench.ALU(4)},
	}
}

func TestRunTable2ShapeAndVerify(t *testing.T) {
	rows, err := Run(Table2(), Options{Verify: true, Circuits: smallSuite()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.DAGDelay > r.TreeDelay+1e-9 {
			t.Errorf("%s: DAG (%v) worse than tree (%v)", r.Circuit, r.DAGDelay, r.TreeDelay)
		}
		if r.TreeDelay <= 0 || r.SubjectNodes == 0 {
			t.Errorf("%s: degenerate row %+v", r.Circuit, r)
		}
	}
}

func TestRicherTableDominates(t *testing.T) {
	suite := smallSuite()
	t2, err := Run(Table2(), Options{Circuits: suite})
	if err != nil {
		t.Fatal(err)
	}
	t3, err := Run(Table3(), Options{Circuits: suite})
	if err != nil {
		t.Fatal(err)
	}
	for i := range t2 {
		if t3[i].DAGDelay > t2[i].DAGDelay+1e-9 {
			t.Errorf("%s: 44-3 DAG (%v) worse than 44-1 DAG (%v)",
				t2[i].Circuit, t3[i].DAGDelay, t2[i].DAGDelay)
		}
		// The tree/DAG gap should not shrink with the richer library
		// on these arithmetic circuits (the paper's central claim).
		gap2 := t2[i].TreeDelay / t2[i].DAGDelay
		gap3 := t3[i].TreeDelay / t3[i].DAGDelay
		if gap3+1e-9 < gap2*0.8 {
			t.Errorf("%s: rich-library gap %.2f collapsed vs %.2f", t2[i].Circuit, gap3, gap2)
		}
	}
}

func TestTable1IntrinsicModel(t *testing.T) {
	rows, err := Run(Table1(), Options{Verify: true, Circuits: smallSuite()[:2]})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.DAGDelay > r.TreeDelay+1e-9 {
			t.Errorf("%s: DAG (%v) worse than tree (%v)", r.Circuit, r.DAGDelay, r.TreeDelay)
		}
	}
}

func TestFormat(t *testing.T) {
	rows, err := Run(Table2(), Options{Circuits: smallSuite()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(Table2(), rows)
	if !strings.Contains(out, "adder8") || !strings.Contains(out, "44-1") {
		t.Errorf("format output missing fields:\n%s", out)
	}
}

func TestRichnessSweepMonotone(t *testing.T) {
	pts, err := RichnessSweep(bench.Circuit{Name: "mult6", Network: bench.ArrayMultiplier(6)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].DAGDelay > pts[i-1].DAGDelay+1e-9 {
			t.Errorf("richness step %d: DAG delay rose from %v to %v",
				i, pts[i-1].DAGDelay, pts[i].DAGDelay)
		}
		if pts[i].Gates <= pts[i-1].Gates {
			t.Errorf("richness step %d: gate count did not grow", i)
		}
	}
}

func TestMatchClassAblation(t *testing.T) {
	pts, err := MatchClassAblation(Table2(), smallSuite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.ExtendedDelay > p.StandardDelay+1e-9 {
			t.Errorf("%s: extended (%v) worse than standard (%v)",
				p.Circuit, p.ExtendedDelay, p.StandardDelay)
		}
		// Footnote 3: no major quality difference expected.
		if p.StandardDelay-p.ExtendedDelay > 0.25*p.StandardDelay {
			t.Logf("%s: unusually large standard/extended gap: %v vs %v",
				p.Circuit, p.StandardDelay, p.ExtendedDelay)
		}
	}
}

func TestAreaRecoveryAblation(t *testing.T) {
	pts, err := AreaRecoveryAblation(Table1(), smallSuite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.RecoveredArea > p.PlainArea+1e-9 {
			t.Errorf("%s: recovery increased area %v -> %v", p.Circuit, p.PlainArea, p.RecoveredArea)
		}
	}
}

func TestBufferingStudy(t *testing.T) {
	pts, err := BufferingStudy(Table1(), smallSuite()[:2], 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.LoadedBefore < p.Intrinsic {
			t.Errorf("%s: loaded delay %v below intrinsic %v", p.Circuit, p.LoadedBefore, p.Intrinsic)
		}
		if p.Buffers < 0 {
			t.Errorf("%s: negative buffer count", p.Circuit)
		}
		// Buffering should not make the loaded delay dramatically
		// worse; on fanout-heavy circuits it should help.
		if p.LoadedAfter > p.LoadedBefore*1.5 {
			t.Errorf("%s: buffering hurt badly: %v -> %v", p.Circuit, p.LoadedBefore, p.LoadedAfter)
		}
	}
}

func TestDecompositionStudy(t *testing.T) {
	pts, err := DecompositionStudy(Table2(), smallSuite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.BalancedDelay <= 0 || p.ChainDelay <= 0 {
			t.Errorf("%s: degenerate delays %+v", p.Circuit, p)
		}
		// The ablation's point is that the decomposition choice moves
		// the result in either direction (chain subject graphs let
		// AOI patterns absorb carry chains, balanced ones are
		// shallower); sanity-bound the ratio rather than its sign.
		ratio := p.ChainDelay / p.BalancedDelay
		if ratio < 0.5 || ratio > 2.0 {
			t.Errorf("%s: chain/balanced ratio %v out of sanity range", p.Circuit, ratio)
		}
	}
}

func TestLUTTradeoff(t *testing.T) {
	pts, err := LUTTradeoff(bench.Circuit{Name: "mult6", Network: bench.ArrayMultiplier(6)}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("points = %d", len(pts))
	}
	opt := pts[0].Depth
	for _, p := range pts {
		if p.Depth > opt+p.Slack {
			t.Errorf("slack %d: depth %d exceeds bound %d", p.Slack, p.Depth, opt+p.Slack)
		}
		if p.LUTs <= 0 {
			t.Errorf("slack %d: no LUTs", p.Slack)
		}
	}
	if pts[len(pts)-1].LUTs > pts[0].LUTs {
		t.Errorf("LUT count rose with slack: %d -> %d", pts[0].LUTs, pts[len(pts)-1].LUTs)
	}
}

func TestSizingStudy(t *testing.T) {
	pts, err := SizingStudy(smallSuite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.LoadedAfter > p.LoadedBefore+1e-9 {
			t.Errorf("%s: sizing made loaded delay worse: %v -> %v",
				p.Circuit, p.LoadedBefore, p.LoadedAfter)
		}
		if p.SizedMatches <= p.BaseMatches {
			t.Errorf("%s: size-expanded library should enumerate more matches (%d vs %d)",
				p.Circuit, p.SizedMatches, p.BaseMatches)
		}
	}
}

func TestArchitectureStudy(t *testing.T) {
	pts, err := ArchitectureStudy(Table2())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]ArchPoint{}
	for _, p := range pts {
		byName[p.Circuit] = p
		if p.DAGDelay > p.TreeDelay+1e-9 {
			t.Errorf("%s: DAG worse than tree", p.Circuit)
		}
	}
	// Architectural advantages must survive mapping.
	if byName["kogge32"].DAGDelay >= byName["ripple32"].DAGDelay {
		t.Errorf("Kogge-Stone (%v) not faster than ripple (%v) after mapping",
			byName["kogge32"].DAGDelay, byName["ripple32"].DAGDelay)
	}
	if byName["wallace12"].DAGDelay >= byName["array12"].DAGDelay {
		t.Errorf("Wallace (%v) not faster than array (%v) after mapping",
			byName["wallace12"].DAGDelay, byName["array12"].DAGDelay)
	}
}

func TestBalanceStudy(t *testing.T) {
	pts, err := BalanceStudy(Table2(), smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.BalancedDepth > p.PlainDepth {
			t.Errorf("%s: balancing increased subject depth %d -> %d",
				p.Circuit, p.PlainDepth, p.BalancedDepth)
		}
		if p.BalancedDelay <= 0 || p.PlainDelay <= 0 {
			t.Errorf("%s: degenerate delays %+v", p.Circuit, p)
		}
	}
}

func TestChoiceStudy(t *testing.T) {
	pts, err := ChoiceStudy(Table2(), smallSuite())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		best := p.BalancedDelay
		if p.ChainDelay < best {
			best = p.ChainDelay
		}
		if p.ChoiceDelay > best+1e-9 {
			t.Errorf("%s: choices (%v) worse than best single decomposition (%v)",
				p.Circuit, p.ChoiceDelay, best)
		}
	}
}

func TestSupergateStudy(t *testing.T) {
	pts, err := SupergateStudy(smallSuite()[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.SuperDelay > p.BaseDelay+1e-9 {
			t.Errorf("%s: supergates (%v) worse than base (%v)", p.Circuit, p.SuperDelay, p.BaseDelay)
		}
		if p.SuperGates <= p.BaseGates {
			t.Errorf("%s: no composites in the super library", p.Circuit)
		}
	}
}

func TestFormatCSV(t *testing.T) {
	rows, err := Run(Table2(), Options{Circuits: smallSuite()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	out := FormatCSV(Table2(), rows)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("csv lines = %d, want 2\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "table,circuit") {
		t.Errorf("csv header wrong: %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "2,adder8,") {
		t.Errorf("csv row wrong: %s", lines[1])
	}
}

func TestLibraryTradeoff(t *testing.T) {
	pts, err := LibraryTradeoff(Table1(), smallSuite()[1], []int{0, 5, 10, 20})
	if err != nil {
		t.Fatal(err)
	}
	opt := pts[0].Delay
	for i, p := range pts {
		bound := opt * (1 + float64(p.SlackPercent)/100)
		if p.Delay > bound+1e-6 {
			t.Errorf("slack %d%%: delay %v exceeds bound %v", p.SlackPercent, p.Delay, bound)
		}
		if i > 0 && p.Area > pts[i-1].Area+1e-9 {
			t.Errorf("slack %d%%: area rose from %v to %v", p.SlackPercent, pts[i-1].Area, p.Area)
		}
	}
	if pts[len(pts)-1].Area >= pts[0].Area {
		t.Logf("trade-off flat on this circuit (acceptable): %v", pts)
	}
}

func TestSequentialStudy(t *testing.T) {
	pts, err := SequentialStudy(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if float64(p.JointPeriod) > p.ThreeStep+1e-9 {
			t.Errorf("%s: joint (%d) worse than 3-step (%v)", p.Circuit, p.JointPeriod, p.ThreeStep)
		}
	}
}
