package subject

import (
	"fmt"

	"dagcover/internal/logic"
	"dagcover/internal/network"
)

// Choices records functionally equivalent alternative subject nodes
// (the light version of Lehman et al.'s mapping graphs the paper's §4
// points at): each class groups nodes computing the same function,
// typically produced by decomposing the same network node in several
// ways into one shared graph. Mappers may realize any member.
//
// Membership is stored densely (classOf indexed by node handle) so
// the per-descent Members probe on the matching hot path is an array
// load, not a map lookup.
type Choices struct {
	classOf []int32 // node -> class index, -1 when unregistered
	classes [][]Node
}

// NewChoices returns an empty choice set.
func NewChoices() *Choices {
	return &Choices{}
}

// grow sizes classOf to cover node n.
func (c *Choices) grow(n Node) {
	for int(n) >= len(c.classOf) {
		c.classOf = append(c.classOf, -1)
	}
}

// Declare registers the nodes as functionally equivalent. Nodes
// already in classes are merged.
func (c *Choices) Declare(nodes ...Node) error {
	if len(nodes) < 2 {
		return nil
	}
	target := int32(-1)
	for _, n := range nodes {
		c.grow(n)
		if id := c.classOf[n]; id >= 0 {
			if target == -1 || id == target {
				target = id
				continue
			}
			// Merge class id into target.
			for _, m := range c.classes[id] {
				c.classOf[m] = target
			}
			c.classes[target] = append(c.classes[target], c.classes[id]...)
			c.classes[id] = nil
		}
	}
	if target == -1 {
		target = int32(len(c.classes))
		c.classes = append(c.classes, nil)
	}
	for _, n := range nodes {
		if c.classOf[n] >= 0 {
			continue // already in target (or merged above)
		}
		c.classOf[n] = target
		c.classes[target] = append(c.classes[target], n)
	}
	return nil
}

// Members returns the equivalence class of n (including n), or nil
// when n has no registered alternatives.
func (c *Choices) Members(n Node) []Node {
	if c == nil || int(n) >= len(c.classOf) {
		return nil
	}
	id := c.classOf[n]
	if id < 0 {
		return nil
	}
	return c.classes[id]
}

// FromNetworkWithChoices decomposes every network node twice —
// chain and balanced — into one shared, structurally hashed graph and
// records the alternatives as choice classes. Downstream logic is
// built on the chain representative (empirically the stronger
// canonical: structural hashing shares more of the alternative cones
// that one-to-one matching can then reach); mappers reach the other
// cones through the choices. Constant handling matches FromNetwork.
func FromNetworkWithChoices(nw *network.Network) (*Graph, *Choices, error) {
	topo, err := nw.TopoSort()
	if err != nil {
		return nil, nil, err
	}
	g := NewGraph(nw.Name, true)
	choices := NewChoices()
	nodeOf := map[*network.Node]Node{}
	constOf := map[*network.Node]*logic.Expr{}
	for _, n := range topo {
		if n.Func == nil {
			pi, err := g.AddPI(n.Name)
			if err != nil {
				return nil, nil, err
			}
			nodeOf[n] = pi
			continue
		}
		fn := n.Func
		for _, fi := range n.Fanins {
			if c, isConst := constOf[fi]; isConst {
				fn = logic.Substitute(fn, fi.Name, c)
			}
		}
		fn = logic.Fold(fn)
		if fn.Op == logic.OpConst {
			constOf[n] = fn
			continue
		}
		env := map[string]Node{}
		for _, fi := range n.Fanins {
			if sn, ok := nodeOf[fi]; ok {
				env[fi.Name] = sn
			}
		}
		g.SetChainDecomposition(true)
		chain, err := g.Build(fn, env)
		if err != nil {
			return nil, nil, fmt.Errorf("subject: node %q: %v", n.Name, err)
		}
		g.SetChainDecomposition(false)
		balanced, err := g.Build(fn, env)
		if err != nil {
			return nil, nil, fmt.Errorf("subject: node %q: %v", n.Name, err)
		}
		if chain != balanced {
			if err := choices.Declare(balanced, chain); err != nil {
				return nil, nil, err
			}
		}
		nodeOf[n] = chain
	}
	for _, o := range nw.Outputs() {
		sn, ok := nodeOf[o]
		if !ok {
			return nil, nil, fmt.Errorf("subject: primary output %q is constant; constant outputs cannot be mapped", o.Name)
		}
		g.MarkOutput(o.Name, sn)
	}
	for _, l := range nw.Latches() {
		sn, ok := nodeOf[l.Input]
		if !ok {
			return nil, nil, fmt.Errorf("subject: latch input %q is constant; constant latch inputs cannot be mapped", l.Input.Name)
		}
		g.MarkOutput(l.Input.Name, sn)
	}
	choices.dropConsumedEarly(g)
	return g, choices, nil
}

// dropConsumedEarly removes every class that some node consumes before
// the class's last member exists: a fanin edge u -> f with f in a
// class whose largest member is u or later. Structural hashing makes
// this possible when a later decomposition joins a class whose members
// already have consumers. Mappers label and build a class once its
// last member is done, so such a consumer would read an unmerged label
// and demand a node built after it. Dropping a class only gives up an
// alternative; it cannot create a new violation, so one pass suffices.
func (c *Choices) dropConsumedEarly(g *Graph) {
	if len(c.classes) == 0 {
		return
	}
	last := make([]Node, len(c.classes))
	for id, cl := range c.classes {
		for _, m := range cl {
			if m > last[id] {
				last[id] = m
			}
		}
	}
	for u := 0; u < g.NumNodes(); u++ {
		fis, k := g.Fanins(Node(u))
		for i := 0; i < k; i++ {
			f := fis[i]
			if int(f) >= len(c.classOf) {
				continue
			}
			if id := c.classOf[f]; id >= 0 && int(last[id]) >= u {
				for _, m := range c.classes[id] {
					c.classOf[m] = -1
				}
				c.classes[id] = nil
			}
		}
	}
}
