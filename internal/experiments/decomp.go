package experiments

// Study A4 is the one experiment that does not map through
// dagcover.Map: its chain half needs patterns compiled in chain style
// (subject.CompileOptions.Chain), so wide gates stay matchable on a
// chain-decomposed subject graph, and the facade compiles libraries
// only in the balanced style. The import-boundary test in the root
// package allows this file, and only this file, to call internal/core.

import (
	"dagcover/internal/bench"
	"dagcover/internal/core"
	"dagcover/internal/match"
	"dagcover/internal/subject"
)

// DecompPoint is one row of the decomposition-sensitivity study (A4):
// the paper's §4 caveat that optimality is relative to the chosen
// subject graph (the motivation for Lehman et al.'s mapping graphs).
type DecompPoint struct {
	Circuit       string
	BalancedDelay float64
	ChainDelay    float64
	BalancedNodes int
	ChainNodes    int
}

// DecompositionStudy maps each circuit with DAG covering on a
// balanced and on a chain-decomposed subject graph; patterns are
// compiled in the matching style so wide gates stay matchable.
func DecompositionStudy(spec TableSpec, circuits []bench.Circuit) ([]DecompPoint, error) {
	matchers := map[bool]*match.Matcher{}
	for _, chain := range []bool{false, true} {
		pats, _, err := subject.CompileLibrary(spec.Library, subject.CompileOptions{Share: true, Chain: chain})
		if err != nil {
			return nil, err
		}
		matchers[chain] = match.NewMatcher(pats)
	}
	var out []DecompPoint
	for _, c := range circuits {
		p := DecompPoint{Circuit: c.Name}
		for _, chain := range []bool{false, true} {
			g, err := subject.FromNetworkChained(c.Network, chain)
			if err != nil {
				return nil, err
			}
			res, err := core.Map(g, matchers[chain], core.Options{Class: match.Standard, Delay: spec.Delay})
			if err != nil {
				return nil, err
			}
			if chain {
				p.ChainDelay, p.ChainNodes = res.Delay, g.NumNodes()
			} else {
				p.BalancedDelay, p.BalancedNodes = res.Delay, g.NumNodes()
			}
		}
		out = append(out, p)
	}
	return out, nil
}
