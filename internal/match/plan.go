package match

import "dagcover/internal/subject"

// planStep is one slot of a pattern's precompiled matching plan: the
// DFS-preorder traversal of the pattern graph from its root. A step
// binds (or re-checks, for shared DAG nodes) one pattern node against
// a subject node determined by its parent step's binding. Bindings are
// kept per first-visit step, so a step says nothing about which pattern
// node it binds: two patterns whose plans agree on a prefix of steps
// walk that prefix identically, which is what lets a trie share it.
type planStep struct {
	parent int32 // index of the parent step; -1 for the root
	// agree is -1 for the first visit of the pattern node (the step
	// binds); otherwise the index of that first-visit step, whose binding
	// this step must equal (shared DAG pattern node, no descent).
	agree int32
	// patFanouts is the pattern fanout count for Definition 2's |o(v)|
	// check (0 for the root, which is exempt).
	patFanouts int32
	slot       uint8        // fanin slot of the parent pattern node this step fills
	kind       subject.Kind // kind of the pattern node
	// swap is true when this (first-visit NAND2) step may try both child
	// orders: its children are non-isomorphic under pruning, or pruning
	// is off.
	swap bool
}

// plan is the compiled matching program of one pattern.
type plan struct {
	steps []planStep
	// pinStep[i] is the first-visit step binding gate pin i's leaf.
	pinStep []int32
	// coverStep lists the first-visit steps of the internal pattern
	// nodes in pattern-node order, the order Match.Covered reports them.
	coverStep []int32
}

// compilePlan builds the DFS-preorder plan. shapes are the pattern's
// shape hashes (for symmetric-sibling pruning).
func compilePlan(p *subject.Pattern, shapes []uint64, prune bool) plan {
	pg := p.Graph
	// One step per pattern edge plus the root; one binding reference
	// per pin and per internal node.
	nSteps, nInternal := 1, 0
	for i := 0; i < pg.NumNodes(); i++ {
		_, k := pg.Fanins(subject.Node(i))
		nSteps += k
		if k > 0 {
			nInternal++
		}
	}
	steps := make([]planStep, 0, nSteps)
	firstStep := make([]int32, pg.NumNodes())
	for i := range firstStep {
		firstStep[i] = -1
	}
	var dfs func(pn subject.Node, parent int32, slot int)
	dfs = func(pn subject.Node, parent int32, slot int) {
		idx := int32(len(steps))
		st := planStep{parent: parent, slot: uint8(slot), kind: pg.KindOf(pn), agree: firstStep[pn]}
		if pn != p.Root {
			st.patFanouts = int32(pg.FanoutCount(pn))
		}
		if st.agree < 0 && st.kind == subject.Nand2 {
			st.swap = !prune || shapes[pg.Fanin0(pn)] != shapes[pg.Fanin1(pn)]
		}
		steps = append(steps, st)
		if st.agree >= 0 {
			return
		}
		firstStep[pn] = idx
		fis, k := pg.Fanins(pn)
		for i := 0; i < k; i++ {
			dfs(fis[i], idx, i)
		}
	}
	dfs(p.Root, -1, 0)
	refs := make([]int32, 0, len(p.PinLeaf)+nInternal)
	for _, leaf := range p.PinLeaf {
		refs = append(refs, firstStep[leaf])
	}
	for i := 0; i < pg.NumNodes(); i++ {
		if pg.KindOf(subject.Node(i)) != subject.PI {
			refs = append(refs, firstStep[i])
		}
	}
	return plan{steps: steps, pinStep: refs[:len(p.PinLeaf)], coverStep: refs[len(p.PinLeaf):]}
}

// trieNode is one plan step shared by every pattern of a trie whose
// plan starts with the same steps. Its children continue those plans;
// its ends list the patterns whose plan stops here (a node may be
// both).
type trieNode struct {
	step         planStep
	depth        int32 // index of the step in each plan through it
	kidLo, kidHi int32 // children: trie.kids[kidLo:kidHi]
	endLo, endHi int32 // finished patterns: trie.ends[endLo:endHi]
}

// trie is the decision trie of one pattern list (a signature bucket,
// or every pattern of one root kind): the patterns' plans merged on
// equal step prefixes. Immutable once built and shared by clones.
type trie struct {
	// pats is the pattern list in library order; trie.ends holds
	// positions into it.
	pats  []int32
	nodes []trieNode
	kids  []int32
	ends  []int32
	// roots are the first steps: trie.kids[:roots].
	roots int32
}

// trieBuilder merges plans into tries. Its scratch is reused across
// the tries of one matcher, so a trie costs three allocations: its
// nodes, children and ends, each sized exactly.
type trieBuilder struct {
	plans []plan
	// per proto node: the step, its depth, the first and last child
	// and the next sibling (-1 for none), and the chain of patterns
	// ending there (endHead, linked through endNext by pattern
	// position, endTail its last link).
	steps    []planStep
	depth    []int32
	firstKid []int32
	lastKid  []int32
	nextSib  []int32
	endHead  []int32
	endTail  []int32
	endNext  []int32
}

// build merges the plans of pats (library order) into a trie.
func (b *trieBuilder) build(pats []int32) trie {
	b.steps, b.depth = b.steps[:0], b.depth[:0]
	b.firstKid, b.lastKid, b.nextSib = b.firstKid[:0], b.lastKid[:0], b.nextSib[:0]
	b.endHead, b.endTail = b.endHead[:0], b.endTail[:0]
	b.endNext = b.endNext[:0]
	// Node 0 is a sentinel parent of the first steps.
	b.add(planStep{}, -1)
	for pos, k := range pats {
		cur := int32(0)
		for d, st := range b.plans[k].steps {
			next := b.firstKid[cur]
			for next >= 0 && b.steps[next] != st {
				next = b.nextSib[next]
			}
			if next < 0 {
				next = b.add(st, int32(d))
				if b.firstKid[cur] < 0 {
					b.firstKid[cur] = next
				} else {
					b.nextSib[b.lastKid[cur]] = next
				}
				b.lastKid[cur] = next
			}
			cur = next
		}
		b.endNext = append(b.endNext, -1)
		if b.endHead[cur] < 0 {
			b.endHead[cur] = int32(pos)
		} else {
			b.endNext[b.endTail[cur]] = int32(pos)
		}
		b.endTail[cur] = int32(pos)
	}
	// Lay the proto nodes out flat, sentinel dropped: node i+1 becomes
	// trie node i, and each node's children and ends form one run.
	n := len(b.steps) - 1
	t := trie{
		pats:  pats,
		nodes: make([]trieNode, n),
		kids:  make([]int32, 0, n),
		ends:  make([]int32, 0, len(pats)),
	}
	for c := b.firstKid[0]; c >= 0; c = b.nextSib[c] {
		t.kids = append(t.kids, c-1)
	}
	t.roots = int32(len(t.kids))
	for i := 1; i <= n; i++ {
		tn := trieNode{step: b.steps[i], depth: b.depth[i]}
		tn.kidLo = int32(len(t.kids))
		for c := b.firstKid[i]; c >= 0; c = b.nextSib[c] {
			t.kids = append(t.kids, c-1)
		}
		tn.kidHi = int32(len(t.kids))
		tn.endLo = int32(len(t.ends))
		for e := b.endHead[i]; e >= 0; e = b.endNext[e] {
			t.ends = append(t.ends, e)
		}
		tn.endHi = int32(len(t.ends))
		t.nodes[i-1] = tn
	}
	return t
}

func (b *trieBuilder) add(st planStep, depth int32) int32 {
	b.steps = append(b.steps, st)
	b.depth = append(b.depth, depth)
	b.firstKid = append(b.firstKid, -1)
	b.lastKid = append(b.lastKid, -1)
	b.nextSib = append(b.nextSib, -1)
	b.endHead = append(b.endHead, -1)
	b.endTail = append(b.endTail, -1)
	return int32(len(b.steps) - 1)
}
