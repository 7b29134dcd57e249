package subject

import "encoding/binary"

// Cone canonicalization: an exact, compact byte key for the depth-d
// input cone of a node. Two nodes receive equal keys if and only if
// their cones are isomorphic as *slot-ordered* DAGs — same node kinds,
// same fanin-slot structure, same internal sharing (a shared node is
// re-encoded as a back-reference to its first visit), and, when
// requested, same fanout counts on the interior nodes. The structural
// matcher reads exactly these properties of the subject graph (kinds,
// Fanin slots, node identity for the one-to-one check, fanout counts
// for the Exact class), and a pattern reads nothing below its own
// depth. The matcher keys a root at the depth of the deepest pattern
// it will try there — the deepest in the root's signature bucket, at
// least 2 so the key also fixes the signature, and so the bucket —
// and the key carries that depth, so equal keys guarantee the matcher
// tries the same patterns and enumerates structurally identical match
// sequences at the two roots — the invariant the match-memoization
// layer is built on.
//
// Fanin order is deliberately NOT re-canonicalized commutatively here:
// match enumeration descends subject Fanin slots in stored order (the
// graph constructors already canonicalize NAND operand order by node
// ID), and downstream best-match selection breaks ties by enumeration
// order. A key that identified slot-swapped cones would replay one
// root's enumeration order at the other and could flip a tie the
// fresh walk would have broken the other way. Slot-exact keys trade a
// few cross-node hits for byte-identical replay.

// Key layout (appended to the encoder's reused buffer):
//
//	prefix: [tag] [depth] [fanouts?1:0]
//	stream: one record per DFS visit, children in slot order —
//	  new node:   coneOpNew | kind | (coneOpExpand if interior)
//	              { uvarint(fanout count) if fanouts && !PI && !root }
//	              { child records if expanded }
//	  revisit:    coneOpRef, uvarint(first-visit index)
//
// A node is expanded iff its minimum depth from the root (over all
// paths) is < depth and it is not a PI. Minimum depth — not first-DFS-
// visit depth — is what makes the key sound for shared nodes reached
// at several depths: any path of length < depth lets a pattern probe
// the node's fanins, so the fanins must be part of the key.
const (
	coneOpRef    byte = 0x03 // back-reference to an already-visited node
	coneOpNew    byte = 0x10 // first visit; low 2 bits carry the Kind
	coneOpExpand byte = 0x04 // set on coneOpNew when fanins follow
)

// ConeEncoder computes cone keys. It keeps generation-stamped scratch
// indexed by node ID so repeated Encode calls allocate nothing once
// the slices have grown to the graph size. Not safe for concurrent
// use; give each matcher its own encoder.
type ConeEncoder struct {
	// One stamp array serves both passes: each Encode advances epoch by
	// 2, the BFS stamps visited nodes with epoch (making minDep[id]
	// valid) and the DFS re-stamps them with epoch+1 (making coneIdx[id]
	// valid). The DFS only ever visits BFS-visited nodes — it expands a
	// node exactly when the BFS did — so overwriting the BFS stamp loses
	// nothing, and one uint32 per node replaces two.
	minDep  []int32 // minimum path length from the current root
	coneIdx []int32 // first-visit index in the DFS stream
	stamp   []uint32
	epoch   uint32

	queue []Node // BFS worklist (reused)
	nodes []Node // first-visit order; parallel to stream indices
	key   []byte // reused key buffer

	// per-Encode registers
	g           *Graph
	root        Node
	depth       int32
	withFanouts bool
}

// NewConeEncoder returns an empty encoder.
func NewConeEncoder() *ConeEncoder { return &ConeEncoder{root: None} }

// Encode computes the cone key of root for the given depth. The tag
// byte is prepended verbatim (callers use it to separate key spaces —
// e.g. match classes — within one table). withFanouts additionally
// encodes interior fanout counts and output bindings (needed only when
// the consumer checks them, i.e. exact-class matching). It returns the
// key and the cone's nodes in first-visit order; both are valid only
// until the next Encode or Reset call (the key aliases an internal
// buffer — copy it to retain it).
func (e *ConeEncoder) Encode(g *Graph, root Node, depth int, withFanouts bool, tag byte) (key []byte, nodes []Node) {
	e.epoch += 2
	if e.epoch == 0 {
		// Stamp wrap: zero stamps could alias epoch 0, so clear them.
		clear(e.stamp)
		e.epoch = 2
	}
	// Size the scratch to the whole graph in one step. Labeling walks
	// roots in ascending ID order, so growing to the current root
	// would reallocate the four arrays log(n) times per worker —
	// hundreds of MB of churn on million-node graphs. One exact-size
	// allocation per graph instead.
	e.grow(g.NumNodes() - 1)
	e.g = g
	e.root = root
	e.depth = int32(depth)
	e.withFanouts = withFanouts
	e.nodes = e.nodes[:0]
	e.key = append(e.key[:0], tag, byte(depth))
	if withFanouts {
		e.key = append(e.key, 1)
	} else {
		e.key = append(e.key, 0)
	}

	// Pass 1: BFS computes each reachable node's minimum depth. The
	// FIFO order is nondecreasing in depth (all edges cost 1), so the
	// first visit records the minimum.
	e.stamp[root] = e.epoch
	e.minDep[root] = 0
	e.queue = append(e.queue[:0], root)
	for qi := 0; qi < len(e.queue); qi++ {
		n := e.queue[qi]
		d := e.minDep[n]
		if d >= e.depth || g.KindOf(n) == PI {
			continue
		}
		fis, k := g.Fanins(n)
		for s := 0; s < k; s++ {
			fi := fis[s]
			if e.stamp[fi] != e.epoch {
				e.stamp[fi] = e.epoch
				e.minDep[fi] = d + 1
				e.queue = append(e.queue, fi)
			}
		}
	}

	// Pass 2: DFS in fanin-slot order serializes the cone.
	e.emit(root)
	return e.key, e.nodes
}

// emit serializes n (and, if expanded, its cone below) into the key.
func (e *ConeEncoder) emit(n Node) {
	if e.stamp[n] == e.epoch+1 {
		e.key = append(e.key, coneOpRef)
		e.key = binary.AppendUvarint(e.key, uint64(e.coneIdx[n]))
		return
	}
	// minDep[n] was written by this Encode's BFS and stays valid after
	// the re-stamp; only its stamp is consumed.
	e.stamp[n] = e.epoch + 1
	e.coneIdx[n] = int32(len(e.nodes))
	e.nodes = append(e.nodes, n)
	kind := e.g.KindOf(n)
	expand := kind != PI && e.minDep[n] < e.depth
	tag := coneOpNew | byte(kind)
	if expand {
		tag |= coneOpExpand
	}
	e.key = append(e.key, tag)
	if e.withFanouts && kind != PI && n != e.root {
		// Interior fanout counts and output bindings gate Exact-class
		// matches; the root is exempt from that check and so excluded
		// from the key.
		fo := uint64(e.g.FanoutCount(n)) << 1
		if e.g.DrivesOutput(n) {
			fo |= 1
		}
		e.key = binary.AppendUvarint(e.key, fo)
	}
	if expand {
		fis, k := e.g.Fanins(n)
		for s := 0; s < k; s++ {
			e.emit(fis[s])
		}
	}
}

// ConeIndex returns the first-visit index the last Encode assigned to
// n, or -1 if n is outside that cone.
func (e *ConeEncoder) ConeIndex(n Node) int32 {
	if int(n) >= len(e.stamp) || e.stamp[n] != e.epoch+1 {
		return -1
	}
	return e.coneIdx[n]
}

// grow sizes the stamped scratch to cover node IDs up to id.
func (e *ConeEncoder) grow(id int) {
	if id < len(e.minDep) {
		return
	}
	n := id + 1 - len(e.minDep)
	e.minDep = append(e.minDep, make([]int32, n)...)
	e.coneIdx = append(e.coneIdx, make([]int32, n)...)
	e.stamp = append(e.stamp, make([]uint32, n)...)
}

// Reset drops the subject-graph reference and truncates the stamped
// scratch so a zero epoch can never alias a stale stamp — the same
// contract as match.Matcher.Reset, and for the same reason: pooled
// encoders must not pin finished requests' graphs in memory.
func (e *ConeEncoder) Reset() {
	e.queue = e.queue[:0]
	e.nodes = e.nodes[:0]
	clear(e.stamp)
	e.minDep = e.minDep[:0]
	e.coneIdx = e.coneIdx[:0]
	e.stamp = e.stamp[:0]
	e.epoch = 0
	e.g = nil
	e.root = None
	e.key = e.key[:0]
}
