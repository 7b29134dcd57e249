package mapping

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
)

// refVerdict is the from-scratch reference for Builder.Netlist: the
// full Check, and on failure the topological sort plus Check again.
func refVerdict(n *Netlist) error {
	if err := n.Check(); err == nil {
		return nil
	}
	if err := n.topoSortCells(); err != nil {
		return err
	}
	return n.Check()
}

// plannedCell is one cell of a random build, by net name.
type plannedCell struct {
	gate   *genlib.Gate
	inputs []string
	output string
}

// buildFaults are the defects a random build may carry; "" is a valid
// build added in topological order.
var buildFaults = []string{"", "out-of-order", "duplicate-driver", "undriven-input", "undriven-port", "pin-count", "generated-name", "late-input"}

// randomBuild drives a Builder through a seeded random sequence that
// mixes the string and ID methods, and records the same sequence as a
// plain Netlist built by name, for the reference check.
func randomBuild(rng *rand.Rand, fault string) (*Builder, *Netlist) {
	lib := libgen.Lib2()
	gates := []*genlib.Gate{lib.Gate("inv"), lib.Gate("nand2"), lib.Gate("aoi21"), lib.Gate("nand4"), lib.Gate("aoi222")}
	b := NewBuilder("rnd")
	ref := &Netlist{Name: "rnd"}

	// Inputs, some named like generated nets, with a duplicate now and
	// then (rejected by both sides alike).
	var driven []string
	for _, name := range []string{"a", "b", "w1", "c", "a", "w4"}[:2+rng.Intn(5)] {
		var err error
		if rng.Intn(2) == 0 {
			err = b.AddInput(name)
		} else {
			_, err = b.AddInputNet(name)
		}
		if err == nil {
			ref.Inputs = append(ref.Inputs, name)
			driven = append(driven, name)
		}
	}
	// Port names, reserved up front; "w2" collides with a future
	// generated name, which FreshNet must then skip.
	ports := []string{"o0", "o1", "w2"}[:1+rng.Intn(3)]
	for _, p := range ports {
		b.Reserve(p)
	}

	fresh := func() string {
		if rng.Intn(2) == 0 {
			return b.FreshNet()
		}
		return b.names[b.NewNet()]
	}
	var cells []plannedCell
	nCells := 1 + rng.Intn(10)
	for i := 0; i < nCells; i++ {
		g := gates[rng.Intn(len(gates))]
		in := make([]string, g.NumInputs())
		for pin := range in {
			in[pin] = driven[rng.Intn(len(driven))]
		}
		var out string
		switch r := rng.Intn(8); {
		case r == 0 && i < len(ports):
			out = ports[i]
		case r == 1:
			out = nameNet(b, fmt.Sprintf("n%d", rng.Intn(4)))
		default:
			out = fresh()
		}
		cells = append(cells, plannedCell{g, in, out})
		driven = append(driven, out)
	}

	switch fault {
	case "out-of-order":
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	case "duplicate-driver":
		c := cells[rng.Intn(len(cells))]
		c.output = driven[rng.Intn(len(driven))]
		c.inputs = append([]string(nil), c.inputs...)
		cells = append(cells, c)
	case "undriven-input":
		c := &cells[rng.Intn(len(cells))]
		c.inputs = append([]string(nil), c.inputs...)
		c.inputs[rng.Intn(len(c.inputs))] = "ghost"
	case "pin-count":
		c := &cells[rng.Intn(len(cells))]
		if rng.Intn(2) == 0 {
			c.inputs = c.inputs[:len(c.inputs)-1]
		} else {
			c.inputs = append(append([]string(nil), c.inputs...), driven[0])
		}
	case "generated-name":
		// A literal "w<k>" string: an issued generated net (a second
		// driver), or one the counter has not reached (a valid explicit
		// name FreshNet later skips), or read before it exists.
		k := rng.Intn(b.ctr + 3)
		name := fmt.Sprintf("w%d", k)
		if rng.Intn(2) == 0 {
			cells = append(cells, plannedCell{gates[0], []string{driven[0]}, name})
		} else {
			c := &cells[rng.Intn(len(cells))]
			c.inputs = append([]string(nil), c.inputs...)
			c.inputs[0] = name
		}
		cells = append(cells, plannedCell{gates[0], []string{driven[0]}, fresh()})
	}

	for _, c := range cells {
		if rng.Intn(2) == 0 {
			b.AddCell(c.gate, c.inputs, c.output)
		} else {
			ids := make([]Net, len(c.inputs))
			for i, in := range c.inputs {
				ids[i] = b.net(in)
			}
			b.AddCellNets(c.gate, ids, b.net(c.output))
		}
		ref.Cells = append(ref.Cells, &Cell{
			Name: fmt.Sprintf("U%d", len(ref.Cells)), Gate: c.gate,
			Inputs: append([]string(nil), c.inputs...), Output: c.output,
		})
	}
	if fault == "late-input" {
		// Read by the first cell, declared only now: Check treats all
		// inputs as driven, the incremental check cannot.
		b.AddCell(gates[0], []string{"late"}, "lateout")
		ref.Cells = append(ref.Cells, &Cell{Name: fmt.Sprintf("U%d", len(ref.Cells)), Gate: gates[0], Inputs: []string{"late"}, Output: "lateout"})
		if err := b.AddInput("late"); err == nil {
			ref.Inputs = append(ref.Inputs, "late")
		}
	}

	for i, p := range ports {
		net := driven[len(driven)-1-rng.Intn(len(driven))]
		if fault == "undriven-port" && i == 0 {
			net = "ghost"
		}
		if rng.Intn(2) == 0 {
			b.MarkOutput(p, net)
		} else {
			b.MarkOutputNet(p, b.net(net))
		}
		ref.Outputs = append(ref.Outputs, OutputPort{Name: p, Net: net})
	}
	return b, ref
}

// cellsEqual compares two cell lists by value.
func cellsEqual(a, b []*Cell) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Gate != b[i].Gate || a[i].Output != b[i].Output ||
			!reflect.DeepEqual(append([]string{}, a[i].Inputs...), append([]string{}, b[i].Inputs...)) {
			return false
		}
	}
	return true
}

// TestBuilderMatchesCheck is the differential test of the incremental
// check: over seeded random build sequences, valid and faulty, in order
// and out of order, Builder.Netlist accepts or rejects exactly as the
// from-scratch Check (after the topological sort) does, with the same
// error and the same cell order. Builds are recorded by name on the
// side, so the test also pins that building by ID yields the netlist
// naming every net would.
func TestBuilderMatchesCheck(t *testing.T) {
	accepted, rejected, fast := map[string]int{}, map[string]int{}, 0
	for seed := int64(0); seed < 4000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fault := buildFaults[int(seed)%len(buildFaults)]
		b, ref := randomBuild(rng, fault)
		if !reflect.DeepEqual(b.n.Inputs, ref.Inputs) || !reflect.DeepEqual(b.n.Outputs, ref.Outputs) || !cellsEqual(b.n.Cells, ref.Cells) {
			t.Fatalf("seed %d (%s): builder netlist differs from the by-name record:\ninputs %v / %v\noutputs %v / %v",
				seed, fault, b.n.Inputs, ref.Inputs, b.n.Outputs, ref.Outputs)
		}
		clean := !b.dirty && b.portsDriven()
		nl, err := b.Netlist()
		want := refVerdict(ref)
		if fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("seed %d (%s): Builder.Netlist error %v, reference %v", seed, fault, err, want)
		}
		if err != nil {
			rejected[fault]++
			continue
		}
		accepted[fault]++
		if !cellsEqual(nl.Cells, ref.Cells) {
			t.Fatalf("seed %d (%s): cell order differs from the reference", seed, fault)
		}
		if clean {
			fast++
		} else if fault == "" {
			t.Fatalf("seed %d: a valid in-order build missed the incremental fast path", seed)
		}
	}
	// Every fault must have been both caught and, where it can be
	// benign, let through, or the generator has drifted.
	for _, f := range []string{"duplicate-driver", "undriven-input", "undriven-port", "pin-count", "generated-name"} {
		if rejected[f] == 0 {
			t.Errorf("fault %q never produced a rejected build", f)
		}
	}
	for _, f := range []string{"", "out-of-order", "generated-name", "late-input"} {
		if accepted[f] == 0 {
			t.Errorf("fault %q never produced an accepted build", f)
		}
	}
	if fast == 0 {
		t.Error("no build took the incremental fast path")
	}
	t.Logf("accepted %v, rejected %v, fast path %d", accepted, rejected, fast)
}
