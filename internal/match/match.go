// Package match implements Rudell's graph-match algorithm: structural
// matching of library pattern graphs against a NAND2/INV subject graph
// rooted at a node, in the three match classes of the paper:
//
//	Exact    (Def. 2) — one-to-one, and every internally covered
//	         subject node's fanout count equals the pattern node's;
//	         the class used by conventional tree covering.
//	Standard (Def. 1) — one-to-one, but internally covered nodes may
//	         have fanout outside the match.
//	Extended (Def. 3) — the one-to-one requirement is dropped, so the
//	         match may unfold the subject DAG (Figure 1).
//
// NAND2 inputs are commutative: both child orders are explored, except
// that when the two pattern children are isomorphic (identical shape
// hash, which includes pin delay classes) only one order is tried —
// the skipped order can only produce cost-equivalent matches.
//
// The patterns that can embed at a root are matched together: their
// plans are merged into a decision trie (plan.go), walked once per
// root, so a step shared by several patterns is matched once. Matches
// are still yielded pattern by pattern in library order.
package match

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"dagcover/internal/subject"
)

// Class selects the match semantics.
type Class int

const (
	// Exact is Definition 2: the tree-covering match class.
	Exact Class = iota
	// Standard is Definition 1: the paper's default DAG-covering class
	// (footnote 3).
	Standard
	// Extended is Definition 3: allows subject-node duplication during
	// matching.
	Extended
)

func (c Class) String() string {
	switch c {
	case Exact:
		return "exact"
	case Standard:
		return "standard"
	case Extended:
		return "extended"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Match is one successful embedding of a pattern at a subject node.
type Match struct {
	Pattern *subject.Pattern
	Root    subject.Node
	// Leaves[i] is the subject node feeding gate pin i.
	Leaves []subject.Node
	// Covered lists the distinct subject nodes bound to internal
	// (non-leaf) pattern nodes; Root is always among them.
	Covered []subject.Node
}

// Matcher enumerates matches of a fixed pattern set. A Matcher is not
// safe for concurrent use; create one per goroutine (patterns may be
// shared).
type Matcher struct {
	Patterns []*subject.Pattern
	// prune enables symmetric-sibling pruning (default true).
	prune bool
	// index enables the root-signature index (default true).
	index bool
	// choices lets structural descent cross into functionally
	// equivalent alternative cones (mapping-graph style, §4).
	choices *subject.Choices

	// plans holds each pattern's precompiled matching program.
	plans []plan
	// sigTries holds one decision trie per subject root signature
	// (subject.Signature), over the patterns that can embed at such a
	// root; kindTries holds one per root kind, over every pattern of
	// that kind (the index-off and choices paths). Each trie's pattern
	// list is in library order, so enumeration through the index yields
	// matches in exactly the full-scan order. Shared by clones
	// (immutable).
	sigTries  []trie
	kindTries [subject.Nand2 + 1]trie
	// tried counts pattern plans attempted by Enumerate since
	// construction (or Clone). Read it through PatternsTried.
	tried int
	// bucketTried counts plans attempted per subject root signature
	// (index path only; allocated when the index is on). Read it
	// through SigBucketsTried.
	bucketTried []uint32
	// stepVisits counts trie steps the walk has entered since
	// construction, Clone, or Reset: the matcher's unit of work, read by
	// the work-counter tests.
	stepVisits int

	// memo, when memoOn, caches complete enumerations by canonical
	// cone key (see memo.go). It is this matcher's own: Clone starts
	// empty and Reset drops it. Keys are computed at the depth of the
	// deepest pattern the walk can try at the root, floored at the
	// signature depth (2) so a key also determines the plans the
	// signature index would try: keyDepth[sig] over the root's
	// signature bucket when the index is on (shared by clones,
	// immutable), memoDepth over the whole library when it is off.
	memo      map[string]memoEntry
	memoOn    bool
	memoDepth int
	keyDepth  []int
	cone      *subject.ConeEncoder
	// memoHits/memoMisses count this matcher's table consultations
	// since construction, Clone, or Reset. Read through
	// MemoHits/MemoMisses.
	memoHits   int
	memoMisses int
	// gate holds each signature bucket's admission counters for the
	// current call (index path only; allocated when the index is on):
	// once a bucket closes, its roots walk uncached (see memo.go).
	// Reset clears it and Clone starts it empty.
	gate []memoGate
	// recording state of an in-flight miss: the recipe stream under
	// construction and whether every binding resolved to a cone index.
	recStream []int32
	recOK     bool
	recording bool

	// scratch (reused across calls; a Matcher is single-goroutine)
	out Match // the *Match every Enumerate yields
	// stepSub[i] is the subject node bound by first-visit step i of the
	// walk's current path, stepOrd[i] its child order (1 = swapped).
	stepSub []subject.Node
	stepOrd []uint8
	// found buffers the walk's completions until they are yielded in
	// library order: per completion [next, len(covered), leaves...,
	// covered...], chained per trie pattern position from head (tail
	// is the last link; -1 ends a chain).
	found []int32
	head  []int32
	tail  []int32
	// registers of the in-flight walk
	g            *subject.Graph
	curTrie      *trie
	curClass     Class
	curInjective bool
	curRoot      subject.Node
	// usedStamp implements the one-to-one check without a map: it is
	// indexed by subject node handle, and a node is bound in the current
	// walk only while its stamp equals the current epoch, so no clearing
	// is needed between walks.
	usedStamp []uint32
	epoch     uint32
}

// SetChoices enables choice-aware matching: whenever the matcher
// descends into a subject node that belongs to an equivalence class,
// every member of the class is tried. Pass nil to disable.
func (m *Matcher) SetChoices(c *subject.Choices) { m.choices = c }

// alts returns the candidate subject nodes for a structural descent
// into sn: its choice-class members, or nil.
func (m *Matcher) alts(sn subject.Node) []subject.Node {
	if m.choices != nil {
		if members := m.choices.Members(sn); members != nil {
			return members
		}
	}
	return nil
}

// Option configures a Matcher.
type Option func(*Matcher)

// WithoutSymmetryPruning explores both child orders even for
// isomorphic pattern children; used to validate the pruning.
func WithoutSymmetryPruning() Option { return func(m *Matcher) { m.prune = false } }

// WithoutSignatureIndex disables the root-signature pre-filter and
// scans every pattern with a matching root kind, as the original
// implementation did; used to validate the index.
func WithoutSignatureIndex() Option { return func(m *Matcher) { m.index = false } }

// NewMatcher builds a matcher over the compiled pattern set.
func NewMatcher(patterns []*subject.Pattern, opts ...Option) *Matcher {
	m := &Matcher{
		Patterns: patterns,
		prune:    true,
		index:    true,
	}
	for _, o := range opts {
		o(m)
	}
	m.plans = make([]plan, len(patterns))
	m.memoDepth = 2 // floor: a key must determine the depth-2 signature
	var byKind [subject.Nand2 + 1][]int32
	for i, p := range patterns {
		m.plans[i] = compilePlan(p, patternShapes(p), m.prune)
		if p.Depth > m.memoDepth {
			m.memoDepth = p.Depth
		}
		kind := p.Graph.KindOf(p.Root)
		byKind[kind] = append(byKind[kind], int32(i))
	}
	tb := &trieBuilder{plans: m.plans}
	for kind, pats := range byKind {
		m.kindTries[kind] = tb.build(pats)
	}
	if m.index {
		buckets := make([][]int32, subject.NumSignatures)
		for i, p := range patterns {
			for _, sig := range subject.PatternSignatures(p.Graph, p.Root) {
				buckets[sig] = append(buckets[sig], int32(i))
			}
		}
		m.sigTries = make([]trie, subject.NumSignatures)
		m.keyDepth = make([]int, subject.NumSignatures)
		// Buckets with equal pattern lists share one trie.
		built := map[string]int{}
		var key []byte
		for sig, bucket := range buckets {
			key = key[:0]
			for _, k := range bucket {
				key = binary.LittleEndian.AppendUint32(key, uint32(k))
			}
			if first, ok := built[string(key)]; ok {
				m.sigTries[sig] = m.sigTries[first]
			} else {
				built[string(key)] = sig
				m.sigTries[sig] = tb.build(bucket)
			}
			m.keyDepth[sig] = 2
			for _, k := range bucket {
				m.keyDepth[sig] = max(m.keyDepth[sig], patterns[k].Depth)
			}
		}
		m.bucketTried = make([]uint32, subject.NumSignatures)
		m.gate = make([]memoGate, subject.NumSignatures)
	}
	m.allocScratch()
	return m
}

// allocScratch sizes the walk's per-step and per-pattern scratch for
// the longest plan and the largest trie (a root kind's: every
// signature bucket is a subset of one).
func (m *Matcher) allocScratch() {
	maxSteps, maxPats := 0, 0
	for i := range m.plans {
		maxSteps = max(maxSteps, len(m.plans[i].steps))
	}
	for i := range m.kindTries {
		maxPats = max(maxPats, len(m.kindTries[i].pats))
	}
	m.stepSub = make([]subject.Node, maxSteps)
	m.stepOrd = make([]uint8, maxSteps)
	m.head = make([]int32, maxPats)
	m.tail = make([]int32, maxPats)
}

// Clone returns an independent matcher sharing the immutable pattern
// data (patterns, plans, tries); use for concurrent enumeration. The
// clone keeps the memo setting, but its counters start at zero and its
// memo table and admission gates start empty.
func (m *Matcher) Clone() *Matcher {
	c := &Matcher{
		Patterns:  m.Patterns,
		plans:     m.plans,
		prune:     m.prune,
		index:     m.index,
		sigTries:  m.sigTries,
		kindTries: m.kindTries,
		choices:   m.choices,
		memoOn:    m.memoOn,
		memoDepth: m.memoDepth,
		keyDepth:  m.keyDepth,
	}
	if m.index {
		c.bucketTried = make([]uint32, subject.NumSignatures)
		c.gate = make([]memoGate, subject.NumSignatures)
	}
	if c.memoOn {
		c.cone = subject.NewConeEncoder()
	}
	c.allocScratch()
	return c
}

// PatternsTried reports how many pattern plans this matcher has
// attempted across all Enumerate calls since construction (or Clone).
// The root-signature index lowers it by skipping plans whose local
// structure cannot embed at the queried root.
func (m *Matcher) PatternsTried() int { return m.tried }

// SigBucketsTried returns a copy of the per-root-signature counts of
// pattern plans attempted through the signature index since
// construction, Clone, or Reset — the probe attribution the tracer
// reports. Enumerations that bypass the index (choices set, or the
// index disabled) are not attributed. Returns nil when the index is
// off.
func (m *Matcher) SigBucketsTried() []uint32 {
	if m.bucketTried == nil {
		return nil
	}
	return append([]uint32(nil), m.bucketTried...)
}

// SetMemoEnabled turns structural match memoization on or off (off
// after NewMatcher). Turning it off keeps the table's entries; Reset
// drops them either way.
func (m *Matcher) SetMemoEnabled(on bool) {
	m.memoOn = on
	if on && m.cone == nil {
		m.cone = subject.NewConeEncoder()
	}
}

// MemoEntries reports how many recipes the matcher's table holds:
// those recorded since construction, Clone, or Reset.
func (m *Matcher) MemoEntries() int { return len(m.memo) }

// MemoHits reports this matcher's memo-table hits since construction,
// Clone, or Reset. A root whose bucket's gate is closed makes no
// lookup and counts as neither a hit nor a miss.
func (m *Matcher) MemoHits() int { return m.memoHits }

// MemoMisses reports this matcher's memo-table misses since
// construction, Clone, or Reset.
func (m *Matcher) MemoMisses() int { return m.memoMisses }

// memoActive reports whether the next Enumerate takes the memo path.
// Choice-aware matching bypasses the memo for the same reason it
// bypasses the signature index: descent may leave the structural cone,
// so the cone key no longer determines the match set. Roots whose key
// depth exceeds maxMemoDepth still walk uncached (see enumerateMemo).
func (m *Matcher) memoActive() bool {
	return m.memoOn && m.choices == nil
}

// Reset clears the matcher's mutable scratch and counters without
// recompiling pattern plans, making it behave exactly like a fresh
// NewMatcher/Clone: PatternsTried restarts at zero and no subject-graph
// references from earlier enumerations are retained (so pooled matchers
// don't pin finished requests' graphs in memory) and the memo table is
// empty, every bucket's admission gate open again. The compiled plans
// and tries and the memo setting are untouched. Choices set with
// SetChoices are cleared; re-set them after Reset if needed.
func (m *Matcher) Reset() {
	m.tried = 0
	clear(m.bucketTried)
	m.stepVisits = 0
	m.choices = nil
	for i := range m.stepSub {
		m.stepSub[i] = subject.None
	}
	clear(m.stepOrd)
	m.found = m.found[:0]
	// Drop the one-to-one table entirely: truncate so a zero epoch can
	// never alias a stale stamp.
	clear(m.usedStamp)
	m.usedStamp = m.usedStamp[:0]
	m.epoch = 0
	m.g = nil
	m.curTrie = nil
	m.curClass = 0
	m.curInjective = false
	m.curRoot = subject.None
	m.out = Match{Root: subject.None, Leaves: m.out.Leaves[:0], Covered: m.out.Covered[:0]}
	m.memo = nil
	m.memoHits = 0
	m.memoMisses = 0
	clear(m.gate)
	m.recStream = m.recStream[:0]
	m.recOK = false
	m.recording = false
	if m.cone != nil {
		m.cone.Reset()
	}
}

// used reports whether sn is bound in the current walk.
func (m *Matcher) used(sn subject.Node) bool { return m.usedStamp[sn] == m.epoch }

func (m *Matcher) setUsed(sn subject.Node) { m.usedStamp[sn] = m.epoch }

func (m *Matcher) clearUsed(sn subject.Node) { m.usedStamp[sn] = 0 }

// patternShapes computes a structural hash per pattern node. Leaf
// shapes incorporate the pin's intrinsic delay so that two leaves are
// shape-equal only when their pin delays are interchangeable. Nodes
// with pattern fanout >= 2 (shared leaves or shared internal nodes of
// DAG patterns) are salted with their identity: a swap of two sibling
// subtrees is a pattern automorphism — and pruning the swapped order
// is sound — only when every shared node maps to itself, which equal
// shapes then guarantee.
func patternShapes(p *subject.Pattern) []uint64 {
	pg := p.Graph
	sh := make([]uint64, pg.NumNodes())
	for i := 0; i < pg.NumNodes(); i++ { // topological order
		n := subject.Node(i)
		switch pg.KindOf(n) {
		case subject.PI:
			pin := p.LeafPin(n)
			d := p.Gate.Pins[pin].Intrinsic()
			sh[n] = mix(0x9e3779b97f4a7c15, math.Float64bits(d))
		case subject.Inv:
			sh[n] = mix(0x85ebca6b3c6ef372, sh[pg.Fanin0(n)])
		case subject.Nand2:
			a, b := sh[pg.Fanin0(n)], sh[pg.Fanin1(n)]
			if a > b {
				a, b = b, a
			}
			sh[n] = mix(mix(0xc2b2ae3d27d4eb4f, a), b)
		}
		if pg.FanoutCount(n) >= 2 {
			sh[n] = mix(sh[n], uint64(n)+0xdeadbeef)
		}
	}
	return sh
}

func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 6) + (h >> 2)
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}

// Enumerate calls yield for every match of every pattern rooted at
// root (a node of subject graph g) under the given class. The *Match
// passed to yield is the matcher's own, reused across yields and
// calls; copy it (and its slices) if retained.
// Enumeration stops early when yield returns false.
func (m *Matcher) Enumerate(g *subject.Graph, root subject.Node, class Class, yield func(*Match) bool) {
	if g.KindOf(root) == subject.PI {
		return
	}
	m.g = g
	out := &m.out
	out.Root = root
	if m.memoActive() {
		m.enumerateMemo(root, class, out, yield)
		return
	}
	// The signature index is sound only for purely structural descent:
	// with choices, a child position may bind a class member whose
	// local shape differs from the child's, so fall back to the full
	// root-kind scan.
	sig := -1
	if m.index && m.choices == nil {
		sig = subject.Signature(g, root)
	}
	m.enumerateWalk(sig, root, class, out, yield)
}

// enumerateWalk is the uncached enumeration: the trie of signature
// bucket sig, or of every pattern of the root's kind when sig < 0. It
// reports whether the enumeration ran to completion (false when yield
// stopped it early) — the recording path must not insert a truncated
// recipe list.
func (m *Matcher) enumerateWalk(sig int, root subject.Node, class Class, out *Match, yield func(*Match) bool) bool {
	var t *trie
	if sig >= 0 {
		t = &m.sigTries[sig]
		m.bucketTried[sig] += uint32(len(t.pats))
	} else {
		t = &m.kindTries[m.g.KindOf(root)]
	}
	m.tried += len(t.pats)
	m.walk(t, root, class)
	return m.yieldFound(t, out, yield)
}

// memoKeyTag separates key spaces that enumerate differently over the
// same cone: the match class (Extended drops injectivity, Exact adds
// fanout checks) and whether the signature index chose the plan list
// (the recorded tried count depends on it).
func memoKeyTag(class Class, index bool) byte {
	tag := byte(class) << 1
	if index {
		tag |= 1
	}
	return tag
}

// enumerateMemo is the memoized enumeration: compute the root's cone
// key, replay the recorded recipes on a hit, or run and record the
// ordinary walk on a miss (once the table holds maxMemoEntries recipes,
// a miss only walks). With the signature index on, the key reaches
// only as deep as the deepest pattern in the root's bucket — the walk
// tries no other — and a root whose bucket is deeper than maxMemoDepth,
// or whose bucket's admission gate has closed, walks uncached while
// other roots keep the memo.
func (m *Matcher) enumerateMemo(root subject.Node, class Class, out *Match, yield func(*Match) bool) {
	sig, depth := m.memoKeyDepth(m.g, root)
	var gate *memoGate
	if sig >= 0 {
		gate = &m.gate[sig]
	}
	if depth > maxMemoDepth || gate.closed() {
		m.enumerateWalk(sig, root, class, out, yield)
		return
	}
	key, nodes := m.cone.Encode(m.g, root, depth, class == Exact, memoKeyTag(class, m.index))
	if e, ok := m.memo[string(key)]; ok { // alloc-free map probe
		m.memoHits++
		gate.hit()
		m.tried += e.tried
		if sig >= 0 {
			// Attribute the skipped plans to the root's signature bucket
			// exactly as the walk would have.
			m.bucketTried[sig] += uint32(e.tried)
		}
		m.replay(e.stream, nodes, out, yield)
		return
	}
	m.memoMisses++
	gate.miss()
	if len(m.memo) >= maxMemoEntries {
		m.enumerateWalk(sig, root, class, out, yield)
		return
	}
	m.recStream = m.recStream[:0]
	m.recOK = true
	m.recording = true
	tried0 := m.tried
	completed := m.enumerateWalk(sig, root, class, out, yield)
	m.recording = false
	if completed && m.recOK {
		if m.memo == nil {
			m.memo = make(map[string]memoEntry)
		}
		m.memo[string(key)] = memoEntry{stream: append([]int32(nil), m.recStream...), tried: m.tried - tried0}
	}
}

// memoKeyDepth returns root's signature bucket (-1 with the index off)
// and the depth the memo computes root's cone key at.
func (m *Matcher) memoKeyDepth(g *subject.Graph, root subject.Node) (sig, depth int) {
	if !m.index {
		return -1, m.memoDepth
	}
	sig = subject.Signature(g, root)
	return sig, m.keyDepth[sig]
}

// replay resolves a recorded recipe stream against the current cone's
// nodes and yields the matches in recorded (= fresh enumeration)
// order. A recipe's leaf count is its pattern's pin count.
func (m *Matcher) replay(stream []int32, nodes []subject.Node, out *Match, yield func(*Match) bool) {
	for len(stream) > 0 {
		p := m.Patterns[stream[0]]
		leaves := stream[2 : 2+len(p.PinLeaf)]
		covered := stream[2+len(leaves) : 2+len(leaves)+int(stream[1])]
		stream = stream[2+len(leaves)+len(covered):]
		out.Pattern = p
		out.Leaves = out.Leaves[:0]
		for _, ci := range leaves {
			out.Leaves = append(out.Leaves, nodes[ci])
		}
		out.Covered = out.Covered[:0]
		for _, ci := range covered {
			out.Covered = append(out.Covered, nodes[ci])
		}
		if !yield(out) {
			return
		}
	}
}

// record appends the just-yielded match of pattern k to the in-flight
// recipe stream as cone indices. A binding outside the encoded cone
// (which the soundness argument in subject/cone.go rules out, but a
// defensive check is cheap) poisons the recording instead of a wrong
// entry.
func (m *Matcher) record(k int32, out *Match) {
	if !m.recOK {
		return
	}
	m.recStream = append(m.recStream, k, int32(len(out.Covered)))
	for _, n := range out.Leaves {
		idx := m.cone.ConeIndex(n)
		if idx < 0 {
			m.recOK = false
			return
		}
		m.recStream = append(m.recStream, idx)
	}
	for _, n := range out.Covered {
		idx := m.cone.ConeIndex(n)
		if idx < 0 {
			m.recOK = false
			return
		}
		m.recStream = append(m.recStream, idx)
	}
}

// AllMatches collects copies of every match at root.
func (m *Matcher) AllMatches(g *subject.Graph, root subject.Node, class Class) []*Match {
	var out []*Match
	m.Enumerate(g, root, class, func(mt *Match) bool {
		cp := &Match{
			Pattern: mt.Pattern,
			Root:    mt.Root,
			Leaves:  append([]subject.Node(nil), mt.Leaves...),
			Covered: append([]subject.Node(nil), mt.Covered...),
		}
		out = append(out, cp)
		return true
	})
	return out
}

// walk enumerates every embedding of t's patterns at subject node
// root by one allocation-free backtracking walk over the trie, so a
// step shared by several plans is matched once for all of them. The
// completions are buffered per pattern (see yieldFound).
func (m *Matcher) walk(t *trie, root subject.Node, class Class) {
	m.curTrie = t
	m.curClass = class
	m.curInjective = class != Extended
	m.curRoot = root
	m.found = m.found[:0]
	for i := range t.pats {
		m.head[i] = -1
	}
	if n := m.g.NumNodes(); len(m.usedStamp) < n {
		m.usedStamp = append(m.usedStamp, make([]uint32, n-len(m.usedStamp))...)
	}
	m.epoch++
	if m.epoch == 0 {
		// Stamp wrap: everything stamped in the previous 2^32-1 epochs
		// must stop looking current.
		clear(m.usedStamp)
		m.epoch = 1
	}
	for _, c := range t.kids[:t.roots] {
		m.visit(c)
	}
}

// visit executes trie node ni's step against the current path's
// bindings, then for each way it binds finishes the patterns that end
// there and visits its children.
func (m *Matcher) visit(ni int32) {
	m.stepVisits++
	t := m.curTrie
	nd := &t.nodes[ni]
	st := &nd.step
	g := m.g
	var base subject.Node
	rootStep := st.parent < 0
	if rootStep {
		base = m.curRoot
	} else {
		slot := st.slot
		if m.stepOrd[st.parent] == 1 {
			slot ^= 1
		}
		base = g.Fanin(m.stepSub[st.parent], int(slot))
	}
	// Choice alternatives apply to descents only: the root binds the
	// node it was asked about (alternatives are realized through the
	// mapper's per-class label merging).
	var cands []subject.Node
	if !rootStep {
		cands = m.alts(base)
	}
	single := [1]subject.Node{base}
	if cands == nil {
		cands = single[:]
	}
	for _, cand := range cands {
		if st.agree >= 0 {
			// Shared DAG pattern node: must agree with the earlier
			// binding; no descent (its subtree was matched then).
			if m.stepSub[st.agree] == cand {
				m.descend(nd)
			}
			continue
		}
		if st.kind != subject.PI {
			if st.kind != g.KindOf(cand) {
				continue
			}
			// Definition 2: internally covered nodes keep their
			// fanout count and drive no output (the root is exempt):
			// an output's node is built for its port, so covering it
			// inside a consumer's match builds it twice.
			if m.curClass == Exact && !rootStep && (int32(g.FanoutCount(cand)) != st.patFanouts || g.DrivesOutput(cand)) {
				continue
			}
		}
		if m.curInjective {
			if m.used(cand) {
				continue
			}
			m.setUsed(cand)
		}
		m.stepSub[nd.depth] = cand
		orders := 1
		if st.swap && g.Fanin0(cand) != g.Fanin1(cand) {
			orders = 2
		}
		for o := 0; o < orders; o++ {
			m.stepOrd[nd.depth] = uint8(o)
			m.descend(nd)
		}
		if m.curInjective {
			m.clearUsed(cand)
		}
	}
}

// descend finishes the patterns whose plan ends at nd and continues
// into nd's children, under the current path's bindings.
func (m *Matcher) descend(nd *trieNode) {
	t := m.curTrie
	for _, pos := range t.ends[nd.endLo:nd.endHi] {
		m.complete(pos)
	}
	for _, c := range t.kids[nd.kidLo:nd.kidHi] {
		m.visit(c)
	}
}

// complete buffers the current path's bindings as a match of the
// trie's pattern at position pos, appended to that pattern's chain so
// each pattern keeps its own DFS order.
func (m *Matcher) complete(pos int32) {
	pl := &m.plans[m.curTrie.pats[pos]]
	rec := int32(len(m.found))
	m.found = append(m.found, -1, 0)
	for _, s := range pl.pinStep { // pin order
		m.found = append(m.found, m.stepSub[s])
	}
	cov := len(m.found)
	for _, s := range pl.coverStep {
		b := m.stepSub[s]
		// Distinct steps bind distinct nodes unless extended matching
		// lets two internal pattern nodes share one.
		if !m.curInjective && slices.Contains(m.found[cov:], b) {
			continue
		}
		m.found = append(m.found, b)
	}
	m.found[rec+1] = int32(len(m.found) - cov)
	if m.head[pos] < 0 {
		m.head[pos] = rec
	} else {
		m.found[m.tail[pos]] = rec
	}
	m.tail[pos] = rec
}

// yieldFound yields the buffered completions of t's patterns, pattern
// by pattern in library order, each pattern's in its own DFS order:
// exactly the sequence of walking the patterns one at a time. It
// reports whether yield accepted every match.
func (m *Matcher) yieldFound(t *trie, out *Match, yield func(*Match) bool) bool {
	for pos, k := range t.pats {
		p := m.Patterns[k]
		nPins := int32(len(p.PinLeaf))
		for r := m.head[pos]; r >= 0; r = m.found[r] {
			lo := r + 2
			out.Pattern = p
			out.Leaves = append(out.Leaves[:0], m.found[lo:lo+nPins]...)
			out.Covered = append(out.Covered[:0], m.found[lo+nPins:lo+nPins+m.found[r+1]]...)
			if m.recording {
				m.record(k, out)
			}
			if !yield(out) {
				return false
			}
		}
	}
	return true
}

// Verify checks that mt is a sound embedding: pattern edges map to
// subject edges, kinds agree, and the class constraints hold. It is
// used by tests and debugging tools.
func Verify(mt *Match, class Class) error {
	p := mt.Pattern
	// Rebuild the binding by re-walking deterministically is not
	// possible (matches are positional), so verify structurally from
	// the leaves: evaluate consistency bottom-up is equivalent to
	// checking leaves count and covered-set plausibility.
	if len(mt.Leaves) != p.Gate.NumInputs() {
		return fmt.Errorf("match: %d leaves for %d pins", len(mt.Leaves), p.Gate.NumInputs())
	}
	for i, l := range mt.Leaves {
		if l == subject.None {
			return fmt.Errorf("match: pin %d unbound", i)
		}
	}
	if len(mt.Covered) == 0 || mt.Covered[0] == subject.None {
		return fmt.Errorf("match: no covered nodes")
	}
	found := false
	for _, c := range mt.Covered {
		if c == mt.Root {
			found = true
		}
		if class == Exact && c != mt.Root {
			// Internal nodes of exact matches keep their fanout count
			// equal to the pattern's, which is at least 1; a covered
			// node with no fanouts other than root uses is suspicious
			// but not checkable here without the binding.
			_ = c
		}
	}
	if !found {
		return fmt.Errorf("match: root not covered")
	}
	return nil
}
