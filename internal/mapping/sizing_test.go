package mapping

import (
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/network"
)

func sizedGroups(t *testing.T) (base *genlib.Library, groups map[string][]*genlib.Gate) {
	t.Helper()
	base = libgen.Lib2()
	sized := libgen.Sized(base, []float64{1, 2, 4})
	return base, genlib.VariantGroups(sized)
}

func TestVariantGroups(t *testing.T) {
	_, groups := sizedGroups(t)
	// Every group must hold exactly the three sizes of one function.
	for key, gs := range groups {
		if len(gs) != 3 {
			t.Errorf("group %q has %d variants", key, len(gs))
		}
		for i := 1; i < len(gs); i++ {
			if gs[i].Area < gs[i-1].Area {
				t.Errorf("group %q not sorted by area", key)
			}
			if gs[i].FunctionKey() != gs[i-1].FunctionKey() {
				t.Errorf("group %q mixes functions", key)
			}
		}
	}
	if len(groups) != 26 {
		t.Errorf("groups = %d, want one per lib2 gate", len(groups))
	}
}

func TestSizedScaling(t *testing.T) {
	base := libgen.Lib2()
	sized := libgen.Sized(base, []float64{1, 4})
	g1 := sized.Gate("nand2_x1")
	g4 := sized.Gate("nand2_x4")
	if g1 == nil || g4 == nil {
		t.Fatal("sized variants missing")
	}
	if g4.Area != 4*g1.Area {
		t.Errorf("area scaling wrong: %v vs %v", g1.Area, g4.Area)
	}
	if g4.Pins[0].InputLoad != 4*g1.Pins[0].InputLoad {
		t.Errorf("input load scaling wrong")
	}
	if g4.Pins[0].RiseFanout*4 != g1.Pins[0].RiseFanout {
		t.Errorf("drive scaling wrong: %v vs %v", g1.Pins[0].RiseFanout, g4.Pins[0].RiseFanout)
	}
	if g4.Pins[0].RiseBlock != g1.Pins[0].RiseBlock {
		t.Errorf("block delay should not scale")
	}
}

// buildSizedSample maps a hot-net circuit using x1 cells, leaving
// obvious sizing headroom.
func buildSizedSample(t *testing.T, sinks int) *Netlist {
	t.Helper()
	sized := libgen.Sized(libgen.Lib2(), []float64{1, 2, 4})
	b := NewBuilder("hot")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInput("c"); err != nil {
		t.Fatal(err)
	}
	b.AddCell(sized.Gate("inv_x1"), []string{"a"}, "hot")
	for i := 0; i < sinks; i++ {
		net := nameNet(b, "o"+itoa(i))
		b.AddCell(sized.Gate("nand2_x1"), []string{"hot", "c"}, net)
		b.MarkOutput("po"+itoa(i), net)
	}
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func TestSizeCellsImprovesLoadedDelay(t *testing.T) {
	_, groups := sizedGroups(t)
	nl := buildSizedSample(t, 24)
	before, err := nl.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sized, swaps, err := nl.SizeCells(groups, LoadOptions{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	if swaps == 0 {
		t.Fatal("no swaps applied despite an overloaded driver")
	}
	after, err := sized.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Delay >= before.Delay {
		t.Errorf("sizing did not improve loaded delay: %v -> %v", before.Delay, after.Delay)
	}
	// The original netlist is untouched.
	again, err := nl.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if again.Delay != before.Delay {
		t.Error("SizeCells mutated the receiver")
	}
	// Function preserved (gate swaps keep FunctionKey).
	a, err := nl.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := sized.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	simA, _ := network.NewSimulator(a)
	simB, _ := network.NewSimulator(bb)
	in := map[string]uint64{"a": 0xDEADBEEF, "c": 0x12345678}
	oa, err := simA.RunOutputs(in)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := simB.RunOutputs(in)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range oa {
		if ob[k] != v {
			t.Fatalf("sizing changed output %q", k)
		}
	}
}

func TestSizeCellsConverges(t *testing.T) {
	_, groups := sizedGroups(t)
	nl := buildSizedSample(t, 8)
	sized, _, err := nl.SizeCells(groups, LoadOptions{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Re-running on the result should find nothing further.
	_, swaps2, err := sized.SizeCells(groups, LoadOptions{}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if swaps2 != 0 {
		t.Errorf("sizing not converged: %d more swaps found", swaps2)
	}
}

func TestCloneIsDeep(t *testing.T) {
	nl := buildSizedSample(t, 2)
	c := nl.Clone()
	c.Cells[0].Output = "mutated"
	if nl.Cells[0].Output == "mutated" {
		t.Error("Clone shares cell structs")
	}
}
