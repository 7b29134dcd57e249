package mapping

import (
	"fmt"
	"sort"

	"dagcover/internal/genlib"
)

// LoadOptions configures load-dependent static timing (the full
// genlib model the paper's experiments deliberately zeroed out;
// provided so the approximation can be quantified and repaired by
// buffering).
type LoadOptions struct {
	// OutputLoad is the capacitive load on every primary-output net.
	OutputLoad float64
	// Arrivals optionally gives primary-input arrival times.
	Arrivals map[string]float64
}

// NetLoads returns each net's capacitive load: the sum of the input
// loads of the pins it drives, plus OutputLoad per output port on it.
func (n *Netlist) NetLoads(opt LoadOptions) map[string]float64 {
	loads := map[string]float64{}
	for _, c := range n.Cells {
		for pin, in := range c.Inputs {
			loads[in] += c.Gate.Pins[pin].InputLoad
		}
	}
	for _, p := range n.Outputs {
		loads[p.Net] += opt.OutputLoad
	}
	return loads
}

// DelayLoaded runs static timing under the load-dependent genlib
// model: pin-to-output delay = block + fanoutCoeff * load(outputNet),
// taking the worse of the rise and fall pairs.
func (n *Netlist) DelayLoaded(opt LoadOptions) (*Timing, error) {
	return n.timing(n.loadedDelay(opt), opt.Arrivals)
}

// loadedDelay is DelayLoaded's pin delay under the netlist's loads.
func (n *Netlist) loadedDelay(opt LoadOptions) PinDelay {
	loads := n.NetLoads(opt)
	return func(c *Cell, pin int) float64 {
		load := loads[c.Output]
		p := c.Gate.Pins[pin]
		d := p.RiseBlock + p.RiseFanout*load
		if fall := p.FallBlock + p.FallFanout*load; fall > d {
			d = fall
		}
		return d
	}
}

// InsertBuffers rewrites the netlist so that no net drives more than
// maxFanout sinks, splitting heavy nets with balanced trees of the
// given buffer gate (the paper's §3.5: buffering techniques can be
// used directly in conjunction with DAG covering to speed up the
// multiple-fanout points it creates). Output ports stay on the
// original driver net and count against its budget; only cell inputs
// are moved behind buffers. The result computes the same functions.
func (n *Netlist) InsertBuffers(buffer *genlib.Gate, maxFanout int) (*Netlist, error) {
	if buffer == nil || buffer.NumInputs() != 1 {
		return nil, fmt.Errorf("mapping: InsertBuffers needs a 1-input buffer gate")
	}
	if maxFanout < 2 {
		return nil, fmt.Errorf("mapping: maxFanout must be at least 2, got %d", maxFanout)
	}
	b := NewBuilder(n.Name)
	for _, in := range n.Inputs {
		if err := b.AddInput(in); err != nil {
			return nil, err
		}
	}
	for _, c := range n.Cells {
		b.Reserve(c.Output)
	}
	for _, p := range n.Outputs {
		b.Reserve(p.Name)
	}

	// Collect cell sinks per net (deterministic order).
	type sinkRef struct{ cell, pin int }
	sinks := map[string][]sinkRef{}
	for ci, c := range n.Cells {
		for pin, in := range c.Inputs {
			sinks[in] = append(sinks[in], sinkRef{ci, pin})
		}
	}
	portUses := map[string]int{}
	for _, p := range n.Outputs {
		portUses[p.Net]++
	}
	newInput := make([][]string, len(n.Cells))
	for ci, c := range n.Cells {
		newInput[ci] = append([]string(nil), c.Inputs...)
	}

	// rewire distributes the given sinks of net `drive` under a
	// fanout budget, creating buffer subtrees for the overflow. The
	// Builder topo-sorts at the end, so emission order is free.
	var rewire func(drive string, ss []sinkRef, budget int)
	rewire = func(drive string, ss []sinkRef, budget int) {
		if len(ss) <= budget {
			for _, ref := range ss {
				newInput[ref.cell][ref.pin] = drive
			}
			return
		}
		// Split the sinks into `budget` child groups as evenly as
		// possible; groups of one connect directly, larger groups go
		// behind a buffer.
		per := (len(ss) + budget - 1) / budget
		for len(ss) > 0 {
			take := per
			if take > len(ss) {
				take = len(ss)
			}
			group := ss[:take]
			ss = ss[take:]
			if len(group) == 1 {
				newInput[group[0].cell][group[0].pin] = drive
				continue
			}
			bufNet := b.FreshNet()
			b.AddCell(buffer, []string{drive}, bufNet)
			rewire(bufNet, group, maxFanout)
		}
	}
	nets := make([]string, 0, len(sinks))
	for net := range sinks {
		nets = append(nets, net)
	}
	sort.Strings(nets)
	for _, net := range nets {
		ss := sinks[net]
		budget := maxFanout - portUses[net]
		if budget < 1 {
			budget = 1
		}
		if len(ss) <= budget {
			continue
		}
		rewire(net, ss, budget)
	}

	for ci, c := range n.Cells {
		b.AddCell(c.Gate, newInput[ci], c.Output)
	}
	for _, p := range n.Outputs {
		b.MarkOutput(p.Name, p.Net)
	}
	return b.Netlist()
}
