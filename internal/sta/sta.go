// Package sta performs static timing analysis on mapped netlists:
// arrival times, required times against a target, per-net slacks, and
// worst-path extraction. It generalizes the quick Delay() summary on
// mapping.Netlist into the full report a designer would read after
// mapping.
package sta

import (
	"math"
	"sort"

	"dagcover/internal/genlib"
	"dagcover/internal/mapping"
)

// Options configures the analysis.
type Options struct {
	// Arrivals optionally gives primary-input arrival times.
	Arrivals map[string]float64
	// RequiredTime is the target arrival at every primary output;
	// when 0, the worst actual arrival is used (so the critical path
	// has slack exactly 0).
	RequiredTime float64
}

// Report is a completed analysis.
type Report struct {
	// Arrival and Required are per-net times; Slack = Required-Arrival.
	Arrival, Required, Slack map[string]float64
	// WorstSlack is the minimum slack over all output ports.
	WorstSlack float64
	// CriticalPort is the output achieving WorstSlack.
	CriticalPort string
	// Delay is the worst output arrival.
	Delay float64
}

// Analyze runs arrival and required-time propagation.
func Analyze(nl *mapping.Netlist, dm genlib.DelayModel, opt Options) (*Report, error) {
	t, err := nl.Delay(dm, opt.Arrivals)
	if err != nil {
		return nil, err
	}
	rt := opt.RequiredTime
	if rt == 0 {
		rt = t.Delay
	}
	required := map[string]float64{}
	for _, in := range nl.Inputs {
		required[in] = math.Inf(1)
	}
	for _, c := range nl.Cells {
		required[c.Output] = math.Inf(1)
	}
	for _, p := range nl.Outputs {
		if rt < required[p.Net] {
			required[p.Net] = rt
		}
	}
	// Backward over the topologically ordered cells.
	for i := len(nl.Cells) - 1; i >= 0; i-- {
		c := nl.Cells[i]
		r := required[c.Output]
		for pin, in := range c.Inputs {
			if v := r - dm.PinDelay(c.Gate, pin); v < required[in] {
				required[in] = v
			}
		}
	}
	slack := map[string]float64{}
	for net, a := range t.Arrival {
		r, ok := required[net]
		if !ok {
			r = math.Inf(1)
		}
		slack[net] = r - a
	}
	rep := &Report{
		Arrival:  t.Arrival,
		Required: required,
		Slack:    slack,
		Delay:    t.Delay,
	}
	first := true
	for _, p := range nl.Outputs {
		s := slack[p.Net]
		if first || s < rep.WorstSlack {
			rep.WorstSlack = s
			rep.CriticalPort = p.Name
			first = false
		}
	}
	return rep, nil
}

// Path is one timing path from a start net to an output port.
type Path struct {
	Port  string
	Slack float64
	Cells []*mapping.Cell
}

// WorstPaths returns up to k paths, one per output port, ordered by
// increasing slack (most critical first).
func WorstPaths(nl *mapping.Netlist, dm genlib.DelayModel, opt Options, k int) ([]Path, error) {
	rep, err := Analyze(nl, dm, opt)
	if err != nil {
		return nil, err
	}
	nets := make([]string, len(nl.Outputs))
	for i, p := range nl.Outputs {
		nets[i] = p.Net
	}
	cells := nl.WorstPaths(nets, rep.Arrival, mapping.FixedDelay(dm))
	paths := make([]Path, len(nl.Outputs))
	for i, p := range nl.Outputs {
		paths[i] = Path{Port: p.Name, Slack: rep.Slack[p.Net], Cells: cells[i]}
	}
	sort.SliceStable(paths, func(i, j int) bool { return paths[i].Slack < paths[j].Slack })
	if k > 0 && len(paths) > k {
		paths = paths[:k]
	}
	return paths, nil
}
