package bench

import (
	"fmt"
	"slices"

	"dagcover/internal/network"
)

// graft copies the combinational network src into b, prefixing every
// node name. Source PIs are connected according to inputMap; PIs
// missing from the map become fresh primary inputs of b. When
// markOutputs is set, src's outputs become outputs of b. The returned
// map gives the new name of every src output.
func (b *builder) graft(src *network.Network, prefix string, inputMap map[string]string, markOutputs bool) map[string]string {
	if len(src.Latches()) != 0 {
		panic("bench: graft supports combinational networks only")
	}
	topo, err := src.TopoSort()
	if err != nil {
		panic(fmt.Sprintf("bench: graft: %v", err))
	}
	rename := map[string]string{}
	for _, n := range topo {
		if n.Func == nil {
			if to, ok := inputMap[n.Name]; ok {
				rename[n.Name] = to
			} else {
				rename[n.Name] = b.in(prefix + n.Name)
			}
			continue
		}
		newName := prefix + n.Name
		var fanins []string
		seen := map[string]bool{}
		faninRename := map[string]string{}
		for _, fi := range n.Fanins {
			to := rename[fi.Name]
			faninRename[fi.Name] = to
			if !seen[to] {
				seen[to] = true
				fanins = append(fanins, to)
			}
		}
		if _, err := b.nw.AddNode(newName, fanins, n.Func.Rename(faninRename)); err != nil {
			panic(fmt.Sprintf("bench: graft: %v", err))
		}
		rename[n.Name] = newName
	}
	outs := map[string]string{}
	for _, o := range src.Outputs() {
		outs[o.Name] = rename[o.Name]
		if markOutputs {
			b.out(rename[o.Name])
		}
	}
	return outs
}

// Circuit names a generated benchmark.
type Circuit struct {
	Name    string
	Network *network.Network
}

// C432 is a stand-in for the 27-channel interrupt controller:
// priority logic over banked requests with parity gating.
func C432() *network.Network {
	b := newBuilder("c432")
	outs := b.graft(PriorityEncoder(27), "pe_", nil, false)
	par := b.graft(ParityTree(9), "pt_", nil, false)
	// Gate each index bit with the parity stream.
	for i, sig := range sortedValues(outs) {
		g := b.node(fmt.Sprintf("po%d", i), fmt.Sprintf("%s^%s", sig, par["par"]), sig, par["par"])
		b.out(g)
	}
	return b.done()
}

// C499 is a stand-in for the 32-bit single-error-correcting circuit.
func C499() *network.Network {
	nw := HammingDecoder(32)
	nw.Name = "c499"
	return nw
}

// C880 is a stand-in for the 8-bit ALU.
func C880() *network.Network {
	nw := ALU(8)
	nw.Name = "c880"
	return nw
}

// C1355 is a stand-in for the 32-bit SEC circuit in its expanded
// NAND form; it computes the same function as C499 (as the real
// C1355 does).
func C1355() *network.Network {
	nw := HammingDecoder(32)
	nw.Name = "c1355"
	return nw
}

// C1908 is a stand-in for the 16-bit SEC/DED circuit: a Hamming
// corrector plus an overall-parity (double-error-detect) output.
func C1908() *network.Network {
	b := newBuilder("c1908")
	dec := b.graft(HammingDecoder(16), "h_", nil, true)
	_ = dec
	// Overall parity over the received codeword for DED.
	p := hammingParityBits(16)
	n := 16 + p
	var terms []string
	for pos := 1; pos <= n; pos++ {
		terms = append(terms, "h_c"+itoa(pos))
	}
	expr := terms[0]
	for _, t := range terms[1:] {
		expr += "^" + t
	}
	b.out(b.node("ded", expr, terms...))
	return b.done()
}

// C2670 is a stand-in for the 12-bit ALU-and-controller: an adder, a
// comparator, priority logic and random control glue.
func C2670() *network.Network {
	b := newBuilder("c2670")
	add := b.graft(CarrySelectAdder(12, 4), "add_", nil, true)
	cmp := b.graft(Comparator(12), "cmp_", nil, false)
	pe := b.graft(PriorityEncoder(16), "pe_", nil, false)
	ctl := b.graft(RandomDAG(24, 220, 2670), "ctl_", nil, false)
	// Cross-couple the section outputs through gating logic.
	i := 0
	for _, lhs := range []map[string]string{cmp, pe, ctl} {
		for _, sig := range sortedValues(lhs) {
			gate := add["cout"]
			b.out(b.node(fmt.Sprintf("po%d", i), fmt.Sprintf("%s^%s", sig, gate), sig, gate))
			i++
		}
	}
	return b.done()
}

// C3540 is a stand-in for the 8-bit ALU with decode/select control.
func C3540() *network.Network {
	b := newBuilder("c3540")
	alu := b.graft(ALU(8), "alu_", nil, true)
	dec := b.graft(Decoder(4), "dec_", nil, false)
	ctl := b.graft(RandomDAG(20, 400, 3540), "ctl_", nil, false)
	i := 0
	decs := sortedValues(dec)
	for idx, sig := range sortedValues(ctl) {
		d := decs[idx%len(decs)]
		b.out(b.node(fmt.Sprintf("po%d", i), fmt.Sprintf("%s*%s+%s*!%s", sig, d, alu["cy"], d), sig, d, alu["cy"]))
		i++
	}
	return b.done()
}

// C5315 is a stand-in for the 9-bit ALU: two ALU slices with selector
// logic and a comparator.
func C5315() *network.Network {
	b := newBuilder("c5315")
	alu1 := b.graft(ALU(9), "u1_", nil, true)
	alu2 := b.graft(ALU(9), "u2_", nil, true)
	cmp := b.graft(Comparator(9), "cmp_", nil, false)
	ctl := b.graft(RandomDAG(30, 350, 5315), "ctl_", nil, false)
	sel := cmp["lt"]
	i := 0
	for idx := 0; idx < 9; idx++ {
		y1 := alu1[bit("y", idx)]
		y2 := alu2[bit("y", idx)]
		b.out(b.node(fmt.Sprintf("sel%d", i), fmt.Sprintf("%s*%s+!%s*%s", sel, y1, sel, y2), sel, y1, y2))
		i++
	}
	for _, sig := range sortedValues(ctl) {
		b.out(b.node(fmt.Sprintf("po%d", i), fmt.Sprintf("%s^%s", sig, sel), sig, sel))
		i++
	}
	return b.done()
}

// C6288 is the 16x16 array multiplier — structurally the real C6288.
func C6288() *network.Network {
	nw := ArrayMultiplier(16)
	nw.Name = "c6288"
	return nw
}

// C7552 is a stand-in for the 34-bit adder/comparator: a wide adder,
// a comparator, parity chains and control glue.
func C7552() *network.Network {
	b := newBuilder("c7552")
	add := b.graft(CarrySelectAdder(34, 4), "add_", nil, true)
	cmp := b.graft(Comparator(32), "cmp_", nil, false)
	par := b.graft(ParityTree(32), "par_", nil, false)
	ctl := b.graft(RandomDAG(32, 500, 7552), "ctl_", nil, false)
	i := 0
	for _, sig := range append(sortedValues(cmp), sortedValues(ctl)...) {
		b.out(b.node(fmt.Sprintf("po%d", i),
			fmt.Sprintf("%s^%s^%s", sig, par["par"], add["cout"]), sig, par["par"], add["cout"]))
		i++
	}
	return b.done()
}

// Suite returns the five circuits of the paper's Tables 1-3, in table
// order.
func Suite() []Circuit {
	return []Circuit{
		{"C2670", C2670()},
		{"C3540", C3540()},
		{"C5315", C5315()},
		{"C6288", C6288()},
		{"C7552", C7552()},
	}
}

// FullSuite returns the extended ISCAS-85-like set including the
// smaller classics, for wider experiments.
func FullSuite() []Circuit {
	return append([]Circuit{
		{"C432", C432()},
		{"C499", C499()},
		{"C880", C880()},
		{"C1355", C1355()},
		{"C1908", C1908()},
	}, Suite()...)
}

// sortedValues returns the map's values ordered by key.
func sortedValues(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	out := make([]string, len(keys))
	for i, k := range keys {
		out[i] = m[k]
	}
	return out
}

func itoa(v int) string { return fmt.Sprintf("%d", v) }
