package subject_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"dagcover/internal/bench"
	"dagcover/internal/blif"
	. "dagcover/internal/subject"
)

// refConeEncoder is the two-pass cone serialization the one-pass BFS
// encoder replaced, kept as a reference: a BFS computes every node's
// minimum depth, then a recursive DFS in fanin-slot order writes one
// record per first visit (children inline after an expanded node's
// record) and a back-reference with the first-visit index per revisit.
// Its keys use the same opcodes in a different order, so they are not
// byte-comparable with ConeEncoder's; the two must induce the same
// equivalence classes of roots.
type refConeEncoder struct {
	g           *Graph
	root        Node
	depth       int32
	withFanouts bool
	// One stamp per node serves both passes: the BFS stamps epoch
	// (minDep valid), the DFS re-stamps epoch+1 (coneIdx valid).
	minDep, coneIdx []int32
	stamp           []uint32
	epoch           uint32
	next            int32
	queue           []Node
	key             []byte
}

func (e *refConeEncoder) encode(g *Graph, root Node, depth int, withFanouts bool, tag byte) []byte {
	if len(e.stamp) < g.NumNodes() {
		e.minDep = make([]int32, g.NumNodes())
		e.coneIdx = make([]int32, g.NumNodes())
		e.stamp = make([]uint32, g.NumNodes())
		e.epoch = 0
	}
	e.epoch += 2
	e.g, e.root, e.depth, e.withFanouts, e.next = g, root, int32(depth), withFanouts, 0
	var fo byte
	if withFanouts {
		fo = 1
	}
	e.key = append(e.key[:0], tag, byte(depth), fo)
	e.stamp[root], e.minDep[root] = e.epoch, 0
	e.queue = append(e.queue[:0], root)
	for qi := 0; qi < len(e.queue); qi++ {
		n := e.queue[qi]
		d := e.minDep[n]
		if d >= e.depth || g.KindOf(n) == PI {
			continue
		}
		fis, k := g.Fanins(n)
		for _, fi := range fis[:k] {
			if e.stamp[fi] != e.epoch {
				e.stamp[fi], e.minDep[fi] = e.epoch, d+1
				e.queue = append(e.queue, fi)
			}
		}
	}
	e.emit(root)
	return e.key
}

func (e *refConeEncoder) emit(n Node) {
	if e.stamp[n] == e.epoch+1 {
		e.key = append(e.key, ConeOpRef)
		e.key = binary.AppendUvarint(e.key, uint64(e.coneIdx[n]))
		return
	}
	e.stamp[n] = e.epoch + 1
	e.coneIdx[n] = e.next
	e.next++
	kind := e.g.KindOf(n)
	expand := kind != PI && e.minDep[n] < e.depth
	rec := ConeOpNew | byte(kind)
	if expand {
		rec |= ConeOpExpand
	}
	e.key = append(e.key, rec)
	if e.withFanouts && kind != PI && n != e.root {
		w := uint64(e.g.FanoutCount(n)) << 1
		if e.g.DrivesOutput(n) {
			w |= 1
		}
		e.key = binary.AppendUvarint(e.key, w)
	}
	if expand {
		fis, k := e.g.Fanins(n)
		for _, fi := range fis[:k] {
			e.emit(fi)
		}
	}
}

// decodedCone is a cone rebuilt from a ConeEncoder key, nodes in BFS
// order (index 0 is the root).
type decodedCone struct {
	tag, depth  byte
	withFanouts bool
	kind        []Kind
	expand      []bool
	foWord      []uint64 // fanout count << 1 | drives output; non-PI, non-root nodes only
	fanins      [][]int  // expanded nodes only, in slot order
}

// decodeConeKey replays the encoder's BFS over a key: each expanded
// node, in index order, owns one op per fanin slot.
func decodeConeKey(key []byte) (*decodedCone, error) {
	if len(key) < 4 {
		return nil, fmt.Errorf("key of %d bytes has no root record", len(key))
	}
	c := &decodedCone{tag: key[0], depth: key[1], withFanouts: key[2] == 1}
	pos := 3
	readRecord := func(root bool) error {
		rec := key[pos]
		pos++
		if rec&^(ConeOpExpand|3) != ConeOpNew || Kind(rec&3) > Nand2 {
			return fmt.Errorf("byte %d: %#x is not a node record", pos-1, rec)
		}
		k := Kind(rec & 3)
		c.kind = append(c.kind, k)
		c.expand = append(c.expand, rec&ConeOpExpand != 0)
		c.fanins = append(c.fanins, nil)
		var w uint64
		if c.withFanouts && k != PI && !root {
			var n int
			w, n = binary.Uvarint(key[pos:])
			if n <= 0 {
				return fmt.Errorf("byte %d: bad fanout word", pos)
			}
			pos += n
		}
		c.foWord = append(c.foWord, w)
		return nil
	}
	if err := readRecord(true); err != nil {
		return nil, err
	}
	for i := 0; i < len(c.kind); i++ {
		if !c.expand[i] {
			continue
		}
		arity := 1
		if c.kind[i] == Nand2 {
			arity = 2
		}
		for s := 0; s < arity; s++ {
			if pos >= len(key) {
				return nil, fmt.Errorf("node %d slot %d: key ends", i, s)
			}
			if key[pos] == ConeOpRef {
				idx, n := binary.Uvarint(key[pos+1:])
				if n <= 0 || idx >= uint64(len(c.kind)) {
					return nil, fmt.Errorf("byte %d: bad back-reference", pos)
				}
				pos += 1 + n
				c.fanins[i] = append(c.fanins[i], int(idx))
				continue
			}
			c.fanins[i] = append(c.fanins[i], len(c.kind))
			if err := readRecord(false); err != nil {
				return nil, err
			}
		}
	}
	if pos != len(key) {
		return nil, fmt.Errorf("%d trailing bytes", len(key)-pos)
	}
	return c, nil
}

// build materializes the decoded cone as a subject graph and returns
// it with the root's node. Graph.Nand orders operands by node ID, so
// nodes are created in a topological order that also puts every NAND's
// slot-0 fanin before its slot-1 fanin; unexpanded gates get fresh PI
// fanins, and dummy inverters pad interior fanout counts.
func (c *decodedCone) build() (*Graph, Node, error) {
	n := len(c.kind)
	after := make([][]int, n) // after[a] lists nodes that must follow a
	indeg := make([]int, n)
	edge := func(a, b int) {
		after[a] = append(after[a], b)
		indeg[b]++
	}
	refs := make([]uint64, n)
	for i, fis := range c.fanins {
		for _, f := range fis {
			edge(f, i)
			refs[f]++
		}
		if len(fis) == 2 && fis[0] != fis[1] {
			edge(fis[0], fis[1])
		}
	}
	var order []int
	for i := range indeg {
		if indeg[i] == 0 {
			order = append(order, i)
		}
	}
	for qi := 0; qi < len(order); qi++ {
		for _, b := range after[order[qi]] {
			if indeg[b]--; indeg[b] == 0 {
				order = append(order, b)
			}
		}
	}
	if len(order) != n {
		return nil, None, fmt.Errorf("no slot-preserving topological order")
	}
	g := NewGraph("decoded", false)
	id := make([]Node, n)
	fresh := 0
	pi := func() Node {
		fresh++
		p, _ := g.AddPI(fmt.Sprintf("p%d", fresh))
		return p
	}
	for _, i := range order {
		fis := c.fanins[i]
		switch {
		case c.kind[i] == PI:
			id[i] = pi()
		case c.kind[i] == Inv && c.expand[i]:
			id[i] = g.Not(id[fis[0]])
		case c.kind[i] == Inv:
			id[i] = g.Not(pi())
		case c.expand[i]:
			id[i] = g.Nand(id[fis[0]], id[fis[1]])
		default:
			id[i] = g.Nand(pi(), pi())
		}
	}
	if c.withFanouts {
		for i := 1; i < n; i++ {
			if c.kind[i] == PI {
				continue
			}
			want := c.foWord[i] >> 1
			if refs[i] > want {
				return nil, None, fmt.Errorf("node %d: %d in-cone fanouts, key says %d", i, refs[i], want)
			}
			for k := refs[i]; k < want; k++ {
				g.Not(id[i])
			}
			if c.foWord[i]&1 != 0 {
				g.MarkOutput(fmt.Sprintf("o%d", i), id[i])
			}
		}
	}
	return g, id[0], nil
}

// coneTestGraph builds a random subject graph; unstrashed graphs keep
// duplicate gates, double inverters and tied NANDs.
func coneTestGraph(seed int64, share bool, nPI, nOps int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := NewGraph(fmt.Sprintf("r%d", seed), share)
	var pool []Node
	for i := 0; i < nPI; i++ {
		p, _ := g.AddPI(fmt.Sprintf("i%d", i))
		pool = append(pool, p)
	}
	for g.NumNodes() < nPI+nOps {
		recent := func() Node { // bias toward recent nodes for deep cones
			return pool[len(pool)-1-rng.Intn(min(len(pool), 12))]
		}
		if rng.Intn(3) == 0 {
			pool = append(pool, g.Not(recent()))
			continue
		}
		x, y := recent(), pool[rng.Intn(len(pool))]
		if x == y && share {
			continue
		}
		pool = append(pool, g.Nand(x, y))
	}
	for i, n := range pool {
		if rng.Intn(8) == 0 {
			g.MarkOutput(fmt.Sprintf("o%d", i), n)
		}
	}
	return g
}

// coneTiledGraph instantiates one random tile (a small template of
// inverters and NANDs over three inputs) many times, each instance fed
// by the previous instances' last nodes, so deep cones repeat with the
// template's reconvergence and the key classes are not all singletons.
func coneTiledGraph(seed int64, share bool) *Graph {
	rng := rand.New(rand.NewSource(seed))
	type op struct {
		inv  bool
		x, y int
	}
	var tile []op
	for len(tile) < 10 {
		n := 3 + len(tile) // template slots: 3 inputs, then the ops
		o := op{inv: rng.Intn(3) == 0, x: n - 1 - rng.Intn(min(n, 3)), y: rng.Intn(n)}
		if !o.inv && o.x == o.y && share {
			continue
		}
		tile = append(tile, o)
	}
	g := NewGraph(fmt.Sprintf("tiled%d", seed), share)
	var pool []Node
	for i := 0; i < 4; i++ {
		p, _ := g.AddPI(fmt.Sprintf("i%d", i))
		pool = append(pool, p)
	}
	for inst := 0; inst < 40; inst++ {
		slots := []Node{pool[len(pool)-1], pool[len(pool)-2], pool[rng.Intn(len(pool))]}
		for _, o := range tile {
			if o.inv {
				slots = append(slots, g.Not(slots[o.x]))
			} else {
				slots = append(slots, g.Nand(slots[o.x], slots[o.y]))
			}
		}
		pool = append(pool, slots[len(slots)-2:]...)
	}
	return g
}

func coneStreamGraph(t *testing.T, family string) *Graph {
	t.Helper()
	gen, ok := bench.StreamFamily(family)
	if !ok {
		t.Fatalf("unknown stream family %q", family)
	}
	var buf bytes.Buffer
	if err := gen(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := (&blif.Reader{}).StreamSubject(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// checkConePartition encodes every node of g with both encoders and
// fails unless equal reference keys coincide exactly with equal
// one-pass keys. Every distinct one-pass key must also decode into a
// cone whose rebuilt graph re-encodes to the same bytes.
func checkConePartition(t *testing.T, name string, g *Graph, depth int, withFanouts bool) {
	t.Helper()
	enc := NewConeEncoder()
	var ref refConeEncoder
	refToNew := map[string]string{}
	newToRef := map[string]string{}
	refRoot := map[string]Node{}
	newRoot := map[string]Node{}
	for i := 0; i < g.NumNodes(); i++ {
		root := Node(i)
		key, nodes := enc.Encode(g, root, depth, withFanouts, 5)
		nk := string(key)
		if len(nodes) == 0 || nodes[0] != root {
			t.Fatalf("%s depth %d: root %d is not the first cone node", name, depth, root)
		}
		rk := string(ref.encode(g, root, depth, withFanouts, 5))
		if prev, ok := refToNew[rk]; ok && prev != nk {
			t.Fatalf("%s depth %d fanouts %t: roots %d and %d share a reference key but not a one-pass key",
				name, depth, withFanouts, refRoot[rk], root)
		}
		if prev, ok := newToRef[nk]; ok {
			if prev != rk {
				t.Fatalf("%s depth %d fanouts %t: roots %d and %d share a one-pass key but not a reference key",
					name, depth, withFanouts, newRoot[nk], root)
			}
			continue
		}
		refToNew[rk], refRoot[rk], newToRef[nk], newRoot[nk] = nk, root, rk, root
		c, err := decodeConeKey(key)
		if err != nil {
			t.Fatalf("%s depth %d fanouts %t root %d: decode %x: %v", name, depth, withFanouts, root, key, err)
		}
		if len(c.kind) != len(nodes) {
			t.Fatalf("%s root %d: decoded %d cone nodes, encoder visited %d", name, root, len(c.kind), len(nodes))
		}
		g2, root2, err := c.build()
		if err != nil {
			t.Fatalf("%s depth %d fanouts %t root %d: rebuild: %v", name, depth, withFanouts, root, err)
		}
		if again, _ := NewConeEncoder().Encode(g2, root2, int(c.depth), c.withFanouts, c.tag); !bytes.Equal(again, key) {
			t.Fatalf("%s depth %d fanouts %t root %d: rebuilt cone re-encodes differently:\n%x\n%x",
				name, depth, withFanouts, root, key, again)
		}
	}
	if len(refToNew) == g.NumNodes() && depth <= 2 {
		t.Errorf("%s depth %d: every root is its own class; the check compares nothing", name, depth)
	}
}

// TestConeKeyPartitionMatchesReference: the one-pass BFS key and the
// two-pass reference key partition roots into the same classes, on
// strashed and unstrashed random graphs (free-form and tiled) at
// depths 1–8 with and without fanouts, and on every node of mult28 and alumesh14x14; and every
// one-pass key decodes into a cone that re-encodes to the same bytes.
func TestConeKeyPartitionMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		for _, share := range []bool{true, false} {
			for _, g := range []*Graph{coneTestGraph(seed, share, 4+int(seed), 300), coneTiledGraph(seed, share)} {
				for depth := 1; depth <= 8; depth++ {
					for _, fo := range []bool{false, true} {
						checkConePartition(t, fmt.Sprintf("%s share=%t", g.Name, share), g, depth, fo)
					}
				}
			}
		}
	}
	if testing.Short() {
		t.Skip("skipping mult28 and alumesh14x14")
	}
	for _, family := range []string{"mult28", "alumesh14x14"} {
		g := coneStreamGraph(t, family)
		for depth := 1; depth <= 8; depth++ {
			for _, fo := range []bool{false, true} {
				checkConePartition(t, family, g, depth, fo)
			}
		}
	}
}
