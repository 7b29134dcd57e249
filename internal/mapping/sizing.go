package mapping

import "dagcover/internal/genlib"

// Clone returns a deep copy of the netlist (cells are copied; gates
// are shared immutable library objects).
func (n *Netlist) Clone() *Netlist {
	c := &Netlist{
		Name:    n.Name,
		Inputs:  append([]string(nil), n.Inputs...),
		Outputs: append([]OutputPort(nil), n.Outputs...),
		Cells:   make([]*Cell, len(n.Cells)),
	}
	for i, cell := range n.Cells {
		c.Cells[i] = &Cell{
			Name:   cell.Name,
			Gate:   cell.Gate,
			Inputs: append([]string(nil), cell.Inputs...),
			Output: cell.Output,
		}
	}
	return c
}

// SizeCells greedily resizes cells to minimize the load-dependent
// delay, in the spirit of the continuous sizing step the paper's §5
// describes after load-free mapping (here with discrete drive
// strengths). groups must map genlib.FunctionKey to interchangeable
// variants (see genlib.VariantGroups of a libgen.Sized library). Per
// iteration the single most profitable swap on the critical path is
// applied (TILOS-style); iteration stops at maxIters or when no swap
// helps. Returns the sized netlist and the number of swaps applied.
func (n *Netlist) SizeCells(groups map[string][]*genlib.Gate, opt LoadOptions, maxIters int) (*Netlist, int, error) {
	if maxIters <= 0 {
		maxIters = 100
	}
	out := n.Clone()
	swaps := 0
	for iter := 0; iter < maxIters; iter++ {
		base, err := out.DelayLoaded(opt)
		if err != nil {
			return nil, 0, err
		}
		path := out.criticalPath(base, out.loadedDelay(opt))
		bestGain := 1e-9
		var bestCell *Cell
		var bestGate *genlib.Gate
		for _, cell := range path {
			variants := groups[cell.Gate.FunctionKey()]
			for _, v := range variants {
				if v == cell.Gate {
					continue
				}
				old := cell.Gate
				cell.Gate = v
				t, err := out.DelayLoaded(opt)
				cell.Gate = old
				if err != nil {
					return nil, 0, err
				}
				if gain := base.Delay - t.Delay; gain > bestGain {
					bestGain = gain
					bestCell = cell
					bestGate = v
				}
			}
		}
		if bestCell == nil {
			break
		}
		bestCell.Gate = bestGate
		swaps++
	}
	return out, swaps, nil
}
