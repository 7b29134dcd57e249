package verify

import (
	"fmt"
	"math/rand"

	"dagcover/internal/mapping"
	"dagcover/internal/network"
)

// This file keeps the map-based interpreter the compiled evaluator
// replaced, as the reference the differential tests hold it to: every
// node's value is looked up by name in a map for every 64-vector word,
// and a mapped netlist is checked through Netlist.ToNetwork.

// refSimulator evaluates a network one 64-vector word at a time.
type refSimulator struct {
	topo []*network.Node
}

func newRefSimulator(nw *network.Network) (*refSimulator, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, err
	}
	return &refSimulator{topo: topo}, nil
}

// run returns the packed value of every node; inputs maps each source
// node name to its word.
func (s *refSimulator) run(inputs map[string]uint64) (map[string]uint64, error) {
	values := make(map[string]uint64, len(s.topo))
	assign := map[string]uint64{}
	for _, n := range s.topo {
		if n.Func == nil {
			v, ok := inputs[n.Name]
			if !ok {
				return nil, fmt.Errorf("network: simulation input %q not supplied", n.Name)
			}
			values[n.Name] = v
			continue
		}
		clear(assign)
		for _, fi := range n.Fanins {
			assign[fi.Name] = values[fi.Name]
		}
		values[n.Name] = n.Func.EvalBatch(assign)
	}
	return values, nil
}

// refNetworks is Networks on the reference interpreter.
func refNetworks(a, b *network.Network, opt Options) error {
	opt.defaults()
	simA, err := newRefSimulator(a)
	if err != nil {
		return fmt.Errorf("verify: reference: %v", err)
	}
	simB, err := newRefSimulator(b)
	if err != nil {
		return fmt.Errorf("verify: candidate: %v", err)
	}
	sources := refSourceNames(simA)
	bSources := refSourceNames(simB)
	for _, s := range bSources {
		if a.Node(s) == nil {
			return fmt.Errorf("verify: candidate source %q unknown to reference", s)
		}
	}
	for _, o := range b.Outputs() {
		if a.Node(o.Name) == nil {
			return fmt.Errorf("verify: candidate output %q unknown to reference", o.Name)
		}
	}

	check := func(in map[string]uint64) error {
		va, err := simA.run(in)
		if err != nil {
			return fmt.Errorf("verify: reference: %v", err)
		}
		inB := map[string]uint64{}
		for _, s := range bSources {
			inB[s] = va[s]
		}
		vb, err := simB.run(inB)
		if err != nil {
			return fmt.Errorf("verify: candidate: %v", err)
		}
		for _, o := range b.Outputs() {
			if va[o.Name] != vb[o.Name] {
				bit := firstDiff(va[o.Name], vb[o.Name])
				return fmt.Errorf("verify: output %q differs (vector bit %d): reference %x, candidate %x",
					o.Name, bit, va[o.Name], vb[o.Name])
			}
		}
		return nil
	}

	if len(sources) <= ExhaustiveLimit {
		rows := 1 << len(sources)
		words := (rows + 63) / 64
		for w := 0; w < words; w++ {
			in := make(map[string]uint64, len(sources))
			for i, s := range sources {
				in[s] = inputPattern(i, w*64)
			}
			if err := check(in); err != nil {
				return fmt.Errorf("%v (exhaustive batch %d)", err, w)
			}
		}
		return nil
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	for round := 0; round < opt.Rounds; round++ {
		in := make(map[string]uint64, len(sources))
		for _, s := range sources {
			in[s] = rng.Uint64()
		}
		if err := check(in); err != nil {
			return fmt.Errorf("%v (random round %d, seed %d)", err, round, opt.Seed)
		}
	}
	return nil
}

// refMapped is Mapped on the reference interpreter.
func refMapped(orig *network.Network, nl *mapping.Netlist, opt Options) error {
	if err := nl.Check(); err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	cand, err := nl.ToNetwork()
	if err != nil {
		return fmt.Errorf("verify: %v", err)
	}
	return refNetworks(orig, cand, opt)
}

// refSourceNames lists a network's free inputs in TopoSort order.
func refSourceNames(s *refSimulator) []string {
	var out []string
	for _, n := range s.topo {
		if n.Func == nil {
			out = append(out, n.Name)
		}
	}
	return out
}
