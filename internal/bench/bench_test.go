package bench

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dagcover/internal/network"
	"dagcover/internal/subject"
)

// lanes evaluates the network on 64 random vectors at once and returns
// a per-lane accessor for node values.
type lanes struct {
	vals map[string]uint64
}

func runLanes(t *testing.T, nw *network.Network, rng *rand.Rand) (*lanes, map[string]uint64) {
	t.Helper()
	sim, err := network.NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	in := map[string]uint64{}
	for _, pi := range nw.Inputs() {
		in[pi.Name] = rng.Uint64()
	}
	for _, l := range nw.Latches() {
		in[l.Output.Name] = rng.Uint64()
	}
	vals, err := sim.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	return &lanes{vals: vals}, in
}

func (l *lanes) bit(name string, lane int) int {
	return int(l.vals[name] >> uint(lane) & 1)
}

// word assembles prefix0..prefix(n-1) into an integer for a lane.
func (l *lanes) word(prefix string, n, lane int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= uint64(l.bit(fmt.Sprintf("%s%d", prefix, i), lane)) << uint(i)
	}
	return v
}

func inputWord(in map[string]uint64, prefix string, n, lane int) uint64 {
	var v uint64
	for i := 0; i < n; i++ {
		v |= (in[fmt.Sprintf("%s%d", prefix, i)] >> uint(lane) & 1) << uint(i)
	}
	return v
}

func TestRippleAdder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 4, 8, 16} {
		nw := RippleAdder(n)
		l, in := runLanes(t, nw, rng)
		for lane := 0; lane < 64; lane += 5 {
			a := inputWord(in, "a", n, lane)
			b := inputWord(in, "b", n, lane)
			cin := in["cin"] >> uint(lane) & 1
			want := a + b + cin
			got := l.word("s", n, lane) | l.vals["cout"]>>uint(lane)&1<<uint(n)
			if got != want {
				t.Fatalf("n=%d lane %d: %d+%d+%d = %d, got %d", n, lane, a, b, cin, want, got)
			}
		}
	}
}

func TestCarrySelectAdder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{4, 12, 34} {
		nw := CarrySelectAdder(n, 4)
		l, in := runLanes(t, nw, rng)
		for lane := 0; lane < 64; lane += 7 {
			a := inputWord(in, "a", n, lane)
			b := inputWord(in, "b", n, lane)
			cin := in["cin"] >> uint(lane) & 1
			want := a + b + cin
			got := l.word("s", n, lane) | l.vals["cout"]>>uint(lane)&1<<uint(n)
			if got != want {
				t.Fatalf("n=%d lane %d: %d+%d+%d = %d, got %d", n, lane, a, b, cin, want, got)
			}
		}
	}
}

func TestArrayMultiplier(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16} {
		nw := ArrayMultiplier(n)
		l, in := runLanes(t, nw, rng)
		for lane := 0; lane < 64; lane += 9 {
			a := inputWord(in, "a", n, lane)
			b := inputWord(in, "b", n, lane)
			want := a * b
			got := l.word("p", 2*n, lane)
			if got != want {
				t.Fatalf("n=%d lane %d: %d*%d = %d, got %d", n, lane, a, b, want, got)
			}
		}
	}
}

func TestComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	nw := Comparator(8)
	l, in := runLanes(t, nw, rng)
	for lane := 0; lane < 64; lane++ {
		a := inputWord(in, "a", 8, lane)
		b := inputWord(in, "b", 8, lane)
		if got := l.bit("lt", lane) == 1; got != (a < b) {
			t.Fatalf("lane %d: lt(%d,%d) = %v", lane, a, b, got)
		}
		if got := l.bit("eq", lane) == 1; got != (a == b) {
			t.Fatalf("lane %d: eq(%d,%d) = %v", lane, a, b, got)
		}
		if got := l.bit("gt", lane) == 1; got != (a > b) {
			t.Fatalf("lane %d: gt(%d,%d) = %v", lane, a, b, got)
		}
	}
}

func TestParityTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{2, 7, 32} {
		nw := ParityTree(n)
		l, in := runLanes(t, nw, rng)
		for lane := 0; lane < 64; lane += 11 {
			want := 0
			for i := 0; i < n; i++ {
				want ^= int(in[fmt.Sprintf("x%d", i)] >> uint(lane) & 1)
			}
			if got := l.bit("par", lane); got != want {
				t.Fatalf("n=%d lane %d: parity %d, got %d", n, lane, want, got)
			}
		}
	}
}

func TestMuxTree(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nw := MuxTree(3)
	l, in := runLanes(t, nw, rng)
	for lane := 0; lane < 64; lane++ {
		sel := int(inputWord(in, "s", 3, lane))
		want := int(in[fmt.Sprintf("d%d", sel)] >> uint(lane) & 1)
		if got := l.bit("y", lane); got != want {
			t.Fatalf("lane %d: mux sel=%d want %d got %d", lane, sel, want, got)
		}
	}
}

func TestDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	nw := Decoder(3)
	l, in := runLanes(t, nw, rng)
	for lane := 0; lane < 64; lane++ {
		addr := int(inputWord(in, "a", 3, lane))
		en := int(in["en"] >> uint(lane) & 1)
		for v := 0; v < 8; v++ {
			want := 0
			if en == 1 && v == addr {
				want = 1
			}
			if got := l.bit(fmt.Sprintf("y%d", v), lane); got != want {
				t.Fatalf("lane %d: y%d = %d, want %d (addr %d en %d)", lane, v, got, want, addr, en)
			}
		}
	}
}

func TestPriorityEncoder(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	nw := PriorityEncoder(8)
	l, in := runLanes(t, nw, rng)
	for lane := 0; lane < 64; lane++ {
		req := int(inputWord(in, "r", 8, lane))
		if req == 0 {
			if l.bit("valid", lane) != 0 {
				t.Fatalf("lane %d: valid asserted with no requests", lane)
			}
			continue
		}
		want := 0
		for i := 7; i >= 0; i-- {
			if req>>uint(i)&1 == 1 {
				want = i
				break
			}
		}
		if l.bit("valid", lane) != 1 {
			t.Fatalf("lane %d: valid not asserted", lane)
		}
		if got := int(l.word("idx", 3, lane)); got != want {
			t.Fatalf("lane %d: req %08b -> idx %d, want %d", lane, req, got, want)
		}
	}
}

func TestALU(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	nw := ALU(8)
	l, in := runLanes(t, nw, rng)
	for lane := 0; lane < 64; lane++ {
		a := inputWord(in, "a", 8, lane)
		b := inputWord(in, "b", 8, lane)
		op := int(in["op1"]>>uint(lane)&1)<<1 | int(in["op0"]>>uint(lane)&1)
		var want uint64
		switch op {
		case 0:
			want = (a + b) & 0xFF
		case 1:
			want = a & b
		case 2:
			want = a | b
		case 3:
			want = a ^ b
		}
		if got := l.word("y", 8, lane); got != want {
			t.Fatalf("lane %d: op %d a=%d b=%d want %d got %d", lane, op, a, b, want, got)
		}
		if op == 0 {
			wantCy := (a + b) >> 8 & 1
			if got := uint64(l.bit("cy", lane)); got != wantCy {
				t.Fatalf("lane %d: carry %d want %d", lane, got, wantCy)
			}
		}
	}
}

func TestHammingRoundTripAndCorrection(t *testing.T) {
	const d = 16
	enc := HammingEncoder(d)
	dec := HammingDecoder(d)
	p := hammingParityBits(d)
	n := d + p
	rng := rand.New(rand.NewSource(10))
	encSim, err := network.NewSimulator(enc)
	if err != nil {
		t.Fatal(err)
	}
	decSim, err := network.NewSimulator(dec)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		in := map[string]uint64{}
		for i := 0; i < d; i++ {
			in[fmt.Sprintf("d%d", i)] = rng.Uint64()
		}
		code, err := encSim.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		// Flip one codeword position per trial (0 = no error).
		flip := trial % (n + 1)
		decIn := map[string]uint64{}
		for pos := 1; pos <= n; pos++ {
			v := code[fmt.Sprintf("c%d", pos)]
			if pos == flip {
				v = ^v
			}
			decIn[fmt.Sprintf("c%d", pos)] = v
		}
		out, err := decSim.Run(decIn)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < d; i++ {
			if out[fmt.Sprintf("d%d", i)] != in[fmt.Sprintf("d%d", i)] {
				t.Fatalf("trial %d (flip %d): data bit %d not corrected", trial, flip, i)
			}
		}
	}
}

func TestRandomDAGDeterministic(t *testing.T) {
	a := RandomDAG(10, 100, 42)
	b := RandomDAG(10, 100, 42)
	if a.NumGates() != b.NumGates() {
		t.Fatal("RandomDAG not deterministic in size")
	}
	if a.NumGates() == 0 || len(a.Outputs()) == 0 {
		t.Fatalf("degenerate random DAG: %d gates %d outputs", a.NumGates(), len(a.Outputs()))
	}
	// Same seeds, same behaviour.
	rng := rand.New(rand.NewSource(11))
	la, in := runLanes(t, a, rng)
	simB, err := network.NewSimulator(b)
	if err != nil {
		t.Fatal(err)
	}
	vb, err := simB.Run(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range a.Outputs() {
		if la.vals[o.Name] != vb[o.Name] {
			t.Fatal("RandomDAG not deterministic in function")
		}
	}
	c := RandomDAG(10, 100, 43)
	if c.NumGates() == a.NumGates() && sameNames(a, c) {
		// Sizes can collide; functions almost surely differ — spot
		// check one output value.
		t.Log("seeds 42 and 43 produced same-size DAGs (acceptable)")
	}
}

// sortedNodeNames returns all node names of nw, sorted.
func sortedNodeNames(nw *network.Network) []string {
	names := make([]string, 0, nw.NumNodes())
	for _, n := range nw.Nodes() {
		names = append(names, n.Name)
	}
	sort.Strings(names)
	return names
}

func sameNames(a, b *network.Network) bool {
	an, bn := sortedNodeNames(a), sortedNodeNames(b)
	if len(an) != len(bn) {
		return false
	}
	for i := range an {
		if an[i] != bn[i] {
			return false
		}
	}
	return true
}

func TestSuiteShapes(t *testing.T) {
	for _, c := range FullSuite() {
		if err := c.Network.Check(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		st, err := c.Network.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Outputs == 0 || st.Inputs == 0 {
			t.Errorf("%s: degenerate io %+v", c.Name, st)
		}
		g, err := subject.FromNetwork(c.Network)
		if err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		ss := g.Stats()
		// The benchmark property that matters for mapping is the
		// subject-graph scale: hundreds to thousands of NAND2/INV
		// nodes, like the real ISCAS-85 circuits.
		if ss.Nands+ss.Invs < 200 {
			t.Errorf("%s: subject graph has only %d gates; too small", c.Name, ss.Nands+ss.Invs)
		}
		if ss.MultiFanout == 0 {
			t.Errorf("%s: no multi-fanout nodes; tree vs DAG comparison would be vacuous", c.Name)
		}
		t.Logf("%s: network{%v} subject{%v}", c.Name, st, ss)
	}
}

func TestC6288IsDeepMultiplier(t *testing.T) {
	nw := C6288()
	st, err := nw.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Inputs != 32 || st.Outputs != 32 {
		t.Errorf("c6288 io = %d/%d, want 32/32", st.Inputs, st.Outputs)
	}
	if st.Depth < 30 {
		t.Errorf("c6288 depth = %d; the array multiplier must be deep", st.Depth)
	}
}

func TestSequentialGenerators(t *testing.T) {
	sr := ShiftRegister(5)
	if len(sr.Latches()) != 5 {
		t.Errorf("shift register latches = %d", len(sr.Latches()))
	}
	if err := sr.Check(); err != nil {
		t.Fatal(err)
	}
	corr := Correlator(8)
	if len(corr.Latches()) != 8 {
		t.Errorf("correlator latches = %d", len(corr.Latches()))
	}
	if err := corr.Check(); err != nil {
		t.Fatal(err)
	}
	palu := PipelinedALU(4, 2)
	if len(palu.Latches()) != (4*2+2)*2 {
		t.Errorf("pipelined ALU latches = %d, want %d", len(palu.Latches()), (4*2+2)*2)
	}
	if err := palu.Check(); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelatorFunction(t *testing.T) {
	// Clock the correlator and check y = XOR of XNOR(tap_i, p_i)
	// against a software model of the shift register.
	const k = 4
	nw := Correlator(k)
	sim, err := network.NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	state := make([]int, k) // shift register model
	regs := map[string]uint64{}
	for _, l := range nw.Latches() {
		regs[l.Output.Name] = 0
	}
	pattern := make([]int, k)
	pin := map[string]uint64{}
	for i := range pattern {
		pattern[i] = rng.Intn(2)
		pin[fmt.Sprintf("p%d", i)] = 0
		if pattern[i] == 1 {
			pin[fmt.Sprintf("p%d", i)] = 1
		}
	}
	for cycle := 0; cycle < 30; cycle++ {
		x := rng.Intn(2)
		in := map[string]uint64{"x": uint64(x)}
		for k2, v := range pin {
			in[k2] = v
		}
		for k2, v := range regs {
			in[k2] = v
		}
		vals, err := sim.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for i := 0; i < k; i++ {
			m := 1 ^ (state[i] ^ pattern[i])
			want ^= m
		}
		if got := int(vals["y"] & 1); got != want {
			t.Fatalf("cycle %d: y = %d, want %d", cycle, got, want)
		}
		// Advance registers.
		for _, l := range nw.Latches() {
			regs[l.Output.Name] = vals[l.Input.Name] & 1
		}
		copy(state[1:], state[:k-1])
		state[0] = x
	}
}

func TestCounter(t *testing.T) {
	const n = 4
	nw := Counter(n)
	if err := nw.Check(); err != nil {
		t.Fatal(err)
	}
	sim, err := network.NewSimulator(nw)
	if err != nil {
		t.Fatal(err)
	}
	state := map[string]uint64{}
	for _, l := range nw.Latches() {
		state[l.Output.Name] = 0
	}
	expected := uint64(0)
	for cycle := 0; cycle < 40; cycle++ {
		en := uint64(cycle % 3 % 2) // mixed enable pattern
		in := map[string]uint64{"en": en}
		for k, v := range state {
			in[k] = v
		}
		vals, err := sim.Run(in)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for i := 0; i < n; i++ {
			got |= (vals[fmt.Sprintf("o%d", i)] & 1) << uint(i)
		}
		if got != expected {
			t.Fatalf("cycle %d: counter = %d, want %d", cycle, got, expected)
		}
		if en == 1 {
			expected = (expected + 1) % (1 << n)
		}
		for _, l := range nw.Latches() {
			state[l.Output.Name] = vals[l.Input.Name] & 1
		}
	}
}
