package subject

import (
	"fmt"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// LUTNetwork builds the LUT network of a cut cover, walking back from
// the outputs (§2): each demanded node n becomes one LUT over the
// nodes of cuts[n], which are built first, so logic shared by several
// cuts is duplicated exactly as DAG covering duplicates it. The first
// output on a node names its LUT unless a primary input holds that
// name; other LUTs get fresh "lut<k>" names that no input or output
// holds, and an output whose LUT or input has another name becomes an
// identity node. LUTNetwork
// returns the network, named name, its LUT count and its depth.
func (g *Graph) LUTNetwork(name string, cuts [][]Node) (*network.Network, int, int, error) {
	nw := network.New(name)
	used := map[string]bool{}
	for _, pi := range g.PIs {
		if _, err := nw.AddInput(g.NameOf(pi)); err != nil {
			return nil, 0, 0, err
		}
		used[g.NameOf(pi)] = true
	}
	portOf := map[Node]string{}
	for _, o := range g.Outputs {
		if _, taken := portOf[o.Node]; !taken && !used[o.Name] {
			portOf[o.Node] = o.Name
		}
		used[o.Name] = true
	}
	ctr := 0
	fresh := func() string {
		for {
			name := fmt.Sprintf("lut%d", ctr)
			ctr++
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}
	names := map[Node]string{}
	depthOf := map[Node]int{}
	luts := 0
	var eb ExprBuilder
	var emit func(n Node) (string, error)
	emit = func(n Node) (string, error) {
		if name, ok := names[n]; ok {
			return name, nil
		}
		if g.KindOf(n) == PI {
			names[n] = g.NameOf(n)
			return names[n], nil
		}
		leaves := cuts[n]
		if leaves == nil {
			return "", fmt.Errorf("subject: node %v demanded without a cut", n)
		}
		boundary := map[Node]string{}
		var fanins []string
		d := 0
		for _, l := range leaves {
			ln, err := emit(l)
			if err != nil {
				return "", err
			}
			boundary[l] = ln
			fanins = append(fanins, ln)
			if depthOf[l] > d {
				d = depthOf[l]
			}
		}
		fn, err := eb.Expr(g, n, boundary)
		if err != nil {
			return "", err
		}
		name := portOf[n]
		if name == "" {
			name = fresh()
		}
		if _, err := nw.AddNode(name, fanins, fn); err != nil {
			return "", err
		}
		names[n] = name
		depthOf[n] = d + 1
		luts++
		return name, nil
	}
	depth := 0
	for _, o := range g.Outputs {
		net, err := emit(o.Node)
		if err != nil {
			return nil, 0, 0, err
		}
		if depthOf[o.Node] > depth {
			depth = depthOf[o.Node]
		}
		if net != o.Name && nw.Node(o.Name) == nil {
			if _, err := nw.AddNode(o.Name, []string{net}, logic.Variable(net)); err != nil {
				return nil, 0, 0, err
			}
		}
		if err := nw.MarkOutput(o.Name); err != nil {
			return nil, 0, 0, err
		}
	}
	return nw, luts, depth, nil
}
