package mapping

import (
	"math/rand"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
	"dagcover/internal/network"
)

// maxNetFanout returns the largest sink count over all nets (output
// ports count as sinks).
func maxNetFanout(n *Netlist) int {
	count := map[string]int{}
	for _, c := range n.Cells {
		for _, in := range c.Inputs {
			count[in]++
		}
	}
	for _, p := range n.Outputs {
		count[p.Net]++
	}
	max := 0
	for _, v := range count {
		if v > max {
			max = v
		}
	}
	return max
}

// fanoutSample builds a netlist where one inverter drives many NANDs.
func fanoutSample(t *testing.T, sinks int) *Netlist {
	t.Helper()
	lib := libgen.Lib2()
	b := NewBuilder("fan")
	if err := b.AddInput("a"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddInput("c"); err != nil {
		t.Fatal(err)
	}
	b.AddCell(lib.Gate("inv"), []string{"a"}, "hot")
	for i := 0; i < sinks; i++ {
		b.AddCell(lib.Gate("nand2"), []string{"hot", "c"}, nameNet(b, "o"+itoa(i)))
		b.MarkOutput("po"+itoa(i), "o"+itoa(i))
	}
	nl, err := b.Netlist()
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var s []byte
	for v > 0 {
		s = append([]byte{byte('0' + v%10)}, s...)
		v /= 10
	}
	return string(s)
}

func TestNetLoads(t *testing.T) {
	nl := fanoutSample(t, 3)
	loads := nl.NetLoads(LoadOptions{OutputLoad: 0.5})
	// hot drives 3 nand2 pins with input load 1 each.
	if loads["hot"] != 3 {
		t.Errorf("load(hot) = %v, want 3", loads["hot"])
	}
	// each output net carries only the port load.
	if loads["o0"] != 0.5 {
		t.Errorf("load(o0) = %v, want 0.5", loads["o0"])
	}
	// a drives the inverter pin.
	if loads["a"] != 1 {
		t.Errorf("load(a) = %v, want 1", loads["a"])
	}
}

func TestDelayLoadedVsIntrinsic(t *testing.T) {
	nl := fanoutSample(t, 16)
	intr, err := nl.Delay(genlib.IntrinsicDelay{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nl.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// lib2's inverter has a nonzero fanout coefficient, so driving 16
	// pins must cost more than the intrinsic model claims.
	if loaded.Delay <= intr.Delay {
		t.Errorf("loaded delay %v should exceed intrinsic %v on a hot net", loaded.Delay, intr.Delay)
	}
}

func TestInsertBuffersReducesFanoutAndLoadedDelay(t *testing.T) {
	lib := libgen.Lib2()
	nl := fanoutSample(t, 32)
	if got := maxNetFanout(nl); got != 32 {
		t.Fatalf("max fanout = %d, want 32", got)
	}
	buffered, err := nl.InsertBuffers(lib.Gate("buf"), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := buffered.Check(); err != nil {
		t.Fatal(err)
	}
	if got := maxNetFanout(buffered); got > 4 {
		t.Errorf("max fanout after buffering = %d, want <= 4", got)
	}
	if buffered.NumCells() <= nl.NumCells() {
		t.Errorf("no buffers inserted: %d cells", buffered.NumCells())
	}
	// Equivalence.
	a, err := nl.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	bb, err := buffered.ToNetwork()
	if err != nil {
		t.Fatal(err)
	}
	simA, _ := network.NewSimulator(a)
	simB, _ := network.NewSimulator(bb)
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 8; round++ {
		in := map[string]uint64{"a": rng.Uint64(), "c": rng.Uint64()}
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
				t.Fatalf("buffering changed output %q", k)
			}
		}
	}
	// The hot net's loaded delay should improve even though buffers
	// add stages.
	before, err := nl.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := buffered.DelayLoaded(LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if after.Delay >= before.Delay {
		t.Errorf("buffering did not reduce loaded delay: %v -> %v", before.Delay, after.Delay)
	}
}

func TestInsertBuffersNoOpWhenCool(t *testing.T) {
	lib := libgen.Lib2()
	nl := fanoutSample(t, 2)
	buffered, err := nl.InsertBuffers(lib.Gate("buf"), 8)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.NumCells() != nl.NumCells() {
		t.Errorf("buffers added on a cool netlist: %d vs %d cells", buffered.NumCells(), nl.NumCells())
	}
}

func TestInsertBuffersErrors(t *testing.T) {
	lib := libgen.Lib2()
	nl := fanoutSample(t, 4)
	if _, err := nl.InsertBuffers(nil, 4); err == nil {
		t.Error("nil buffer accepted")
	}
	if _, err := nl.InsertBuffers(lib.Gate("nand2"), 4); err == nil {
		t.Error("2-input gate accepted as buffer")
	}
	if _, err := nl.InsertBuffers(lib.Gate("buf"), 1); err == nil {
		t.Error("maxFanout 1 accepted")
	}
}

func TestInsertBuffersDeepTree(t *testing.T) {
	// 100 sinks with maxFanout 3 forces a multi-level tree.
	lib := libgen.Lib2()
	nl := fanoutSample(t, 100)
	buffered, err := nl.InsertBuffers(lib.Gate("buf"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := buffered.Check(); err != nil {
		t.Fatal(err)
	}
	if got := maxNetFanout(buffered); got > 3 {
		t.Errorf("max fanout after deep buffering = %d", got)
	}
	counts := gateCounts(buffered)
	if counts["buf"] < 33 {
		t.Errorf("deep tree has only %d buffers", counts["buf"])
	}
}
