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
//	root:   node record of the root (no fanout word)
//	body:   for each expanded node in BFS order, for each fanin slot in
//	        slot order, one op —
//	  first visit: node record of the fanin, which takes the next BFS index
//	  revisit:     coneOpRef, uvarint(BFS index)
//
//	node record: coneOpNew | kind | (coneOpExpand if expanded)
//	             { uvarint(fanout count << 1 | drives output)
//	               if fanouts && !PI && !root }
//
// One BFS from the root, children in fanin-slot order, numbers and
// serializes the cone in the same pass. A node is expanded iff its
// minimum depth from the root (over all paths) is < depth and it is
// not a PI. Minimum depth — not first-DFS-visit depth — is what makes
// the key sound for shared nodes reached at several depths: any path of
// length < depth lets a pattern probe the node's fanins, so the fanins
// must be part of the key. FIFO order is nondecreasing in depth (all
// edges cost 1), so a node's first visit is at its minimum depth and
// its record can be written there and then.
//
// The key is a canonical serialization of the slot-ordered,
// min-depth-expanded cone: a decoder replays the BFS, reading each
// expanded node's fanin ops in turn (a kind fixes its fanin count), and
// rebuilds the cone, so equal keys mean isomorphic cones and vice
// versa.
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
	// Each Encode advances epoch by 1 and stamps every node it visits
	// once, on its first visit; a stamp equal to epoch makes the slot's
	// index valid. Stamp and index share a slot, so a revisit costs one
	// cache line.
	slot  []coneSlot
	epoch uint32

	nodes []Node // BFS order, parallel to cone indices; doubles as the worklist
	key   []byte // reused key buffer

	// Cumulative work since construction or Reset (see Work).
	workNodes, workKeyBytes int64
}

// coneSlot is one node's scratch: the epoch of the Encode that last
// visited it and its BFS index in that cone.
type coneSlot struct {
	stamp uint32
	idx   int32
}

// NewConeEncoder returns an empty encoder.
func NewConeEncoder() *ConeEncoder { return &ConeEncoder{} }

// Encode computes the cone key of root for the given depth. The tag
// byte is prepended verbatim (callers use it to separate key spaces —
// e.g. match classes — within one table). withFanouts additionally
// encodes interior fanout counts and output bindings (needed only when
// the consumer checks them, i.e. exact-class matching). It returns the
// key and the cone's nodes in BFS order; both are valid only until the
// next Encode or Reset call (the key aliases an internal buffer — copy
// it to retain it).
func (e *ConeEncoder) Encode(g *Graph, root Node, depth int, withFanouts bool, tag byte) (key []byte, nodes []Node) {
	e.epoch++
	if e.epoch == 0 {
		// Stamp wrap: zero stamps could alias epoch 0, so clear them.
		clear(e.slot)
		e.epoch = 1
	}
	// Size the scratch to the whole graph in one step. Labeling walks
	// roots in ascending ID order, so growing to the current root
	// would reallocate the arrays log(n) times per worker — hundreds of
	// MB of churn on million-node graphs. One exact-size allocation per
	// graph instead.
	e.grow(g.NumNodes() - 1)
	epoch, slot := e.epoch, e.slot
	kinds, fanin0, fanin1 := g.kind, g.fanin0, g.fanin1

	var fo byte
	if withFanouts {
		fo = 1
	}
	key = append(e.key[:0], tag, byte(depth), fo)
	slot[root] = coneSlot{epoch, 0}
	nodes = append(e.nodes[:0], root)
	// The root is exempt from the Exact-class fanout check, so its
	// record carries no fanout word.
	key = appendRecord(key, g, root, depth > 0, false)

	// nodes[lo:hi] is BFS level d: every node whose minimum depth is d.
	// Nodes at depth or deeper are not expanded, so the walk stops at
	// that level.
	for lo, d := 0, 0; d < depth && lo < len(nodes); d++ {
		hi := len(nodes)
		for _, n := range nodes[lo:hi] {
			fis := [2]Node{fanin0[n], fanin1[n]}
			for _, c := range fis[:kinds[n]&3] { // a Kind is its fanin count
				if sl := slot[c]; sl.stamp == epoch {
					key = binary.AppendUvarint(append(key, coneOpRef), uint64(sl.idx))
					continue
				}
				slot[c] = coneSlot{epoch, int32(len(nodes))}
				nodes = append(nodes, c)
				key = appendRecord(key, g, c, d+1 < depth, withFanouts)
			}
		}
		lo = hi
	}
	e.key, e.nodes = key, nodes
	e.workNodes += int64(len(nodes))
	e.workKeyBytes += int64(len(key))
	return key, nodes
}

// appendRecord appends n's node record (see Key layout): coneOpNew
// and its kind, coneOpExpand if n is not a PI and lies above the key
// depth, and, if withFanouts and n is not a PI, its fanout word.
func appendRecord(key []byte, g *Graph, n Node, aboveDepth, withFanouts bool) []byte {
	k := g.kind[n]
	if k&3 == PI {
		return append(key, coneOpNew|byte(PI))
	}
	rec := coneOpNew | byte(k&3)
	if aboveDepth {
		rec |= coneOpExpand
	}
	key = append(key, rec)
	if withFanouts {
		// Interior fanout counts and output bindings gate Exact-class
		// matches: word = fanout count << 1 | drives output.
		key = binary.AppendUvarint(key, uint64(g.nfo[n])<<1|uint64(k&drivesOutput)>>2)
	}
	return key
}

// ConeIndex returns the BFS index the last Encode assigned to n, or -1
// if n is outside that cone.
func (e *ConeEncoder) ConeIndex(n Node) int32 {
	if int(n) >= len(e.slot) || e.slot[n].stamp != e.epoch {
		return -1
	}
	return e.slot[n].idx
}

// Work reports the cone nodes visited and key bytes written by every
// Encode since construction or the last Reset. Tests pin them to catch
// a change that silently widens keys.
func (e *ConeEncoder) Work() (nodes, keyBytes int64) {
	return e.workNodes, e.workKeyBytes
}

// grow sizes the stamped scratch to cover node IDs up to id.
func (e *ConeEncoder) grow(id int) {
	if id < len(e.slot) {
		return
	}
	e.slot = append(e.slot, make([]coneSlot, id+1-len(e.slot))...)
}

// Reset truncates the stamped scratch and zeroes the epoch, so a zero
// epoch can never alias a stale stamp, and zeroes the work counters —
// the same contract as match.Matcher.Reset, which calls it when a
// pooled matcher finishes a Map call. The encoder keeps no reference to
// any graph.
func (e *ConeEncoder) Reset() {
	e.nodes = e.nodes[:0]
	clear(e.slot)
	e.slot = e.slot[:0]
	e.epoch = 0
	e.key = e.key[:0]
	e.workNodes, e.workKeyBytes = 0, 0
}
