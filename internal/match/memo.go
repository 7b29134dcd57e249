package match

// Structural match memoization. The matcher's per-node work — running
// every candidate pattern plan's backtracking walk — depends only on
// the local structure of the subject graph around the root, captured
// exactly by subject.ConeEncoder's canonical cone key. The key reaches
// as deep as the deepest pattern the walk can try at the root: the
// deepest pattern in the root's signature bucket (floored at the
// signature depth 2), or the deepest in the library with the signature
// index off. No pattern reads below its own depth, so the bucket's
// depth bounds everything the walk reads; on alumesh21x21 × 44-3 a key
// covers 37.0 cone nodes per root instead of the library-wide 100.9.
//
// The memo maps cone keys to the full ordered match list recorded as a
// *recipe stream*: pattern indices plus leaf/covered bindings encoded
// as cone indices (the nodes' BFS indices in the key) rather than node
// pointers. A hit replays the stream against the current root's cone
// nodes and skips the trie walk entirely; a miss runs the ordinary
// walk and records it. A hit costs one BFS over the cone, which
// numbers and serializes it in the same pass, a map probe and the
// replay, and allocates nothing: the key lives in the encoder's
// buffer, the map probe does not copy it, and the replay fills the
// matcher's one reused Match.
//
// Replay fidelity: the recorded stream is the complete yield sequence
// of a fresh enumeration, in order, and equal keys guarantee (see
// subject/cone.go) that a fresh enumeration at the hitting root would
// produce the structurally identical sequence. Downstream tie-breaks
// that depend on enumeration order therefore resolve identically with
// the memo on or off, which is what keeps mapped netlists
// byte-identical in both modes.
//
// Scope: the table is a private, unlocked field of one Matcher. Clone
// starts the copy with an empty table and Reset empties it, so a
// pooled matcher's table lives for one Map call. The table holds at most
// maxMemoEntries recipes; once full it stops recording and keeps
// serving hits. Nothing is evicted.
//
// Admission: a miss costs the cone encode, the recipe record and the
// insert on top of the walk, and buys nothing unless a later root
// shares the cone. On structured circuits (multipliers, ALU meshes,
// C6288) nearly every root hits; on fresh random logic nearly every
// root misses. So each signature bucket carries a gate for the call:
// it counts the bucket's lookups, and once its misses reach
// gateMinMisses while outnumbering its hits more than gateMissesPerHit
// to one, the bucket closes and its roots take the plain walk, with no
// encode, probe or record, until Reset. A gated root runs exactly the
// walk the memo-off path runs, so netlists do not change; it makes no
// lookup, so it counts as neither a hit nor a miss. The gate is per
// matcher and per call like the table, so counts stay deterministic.
// The signature-index-off validation path has no buckets and is not gated.

// maxMemoEntries caps one matcher's table. At a few hundred bytes per
// entry this bounds it in the tens of megabytes; the largest stream
// families record a few hundred entries per call and
// RandomDAG(32, 2900, s) × 44-3 about 6.5k.
const maxMemoEntries = 1 << 16

// maxMemoDepth bounds the key depth: a root whose key would be deeper
// (its signature bucket holds a pathologically deep pattern) walks
// uncached, since such keys grow exponentially with sharing and hit
// rates collapse. Roots of shallower buckets keep the memo.
const maxMemoDepth = 32

// The admission gate's constants, swept over {4, 8, 16, 32, 64} ×
// {2, 4, 8, 16} on C432, C6288 and six RandomDAG(32, 300–3000, s)
// under lib2, 44-1 and 44-3 (see CHANGES.md). At 32 and 8 no bucket
// of C432, C6288, mult28 or alumesh14x14 closes, so they keep every
// hit; a smaller minimum closes some C432 and C6288 buckets before
// their hits arrive. A random DAG's 44-3 buckets close after their
// first 32 misses.
const (
	// gateMinMisses is how many misses a bucket pays before its gate
	// may close; below it a bucket's ratio is too noisy to judge.
	gateMinMisses = 32
	// gateMissesPerHit is the miss-to-hit ratio past which the gate
	// closes.
	gateMissesPerHit = 8
)

// memoGate is one signature bucket's memo lookups in the current call.
// The methods accept a nil gate (a root with no bucket), which never
// closes.
type memoGate struct{ hits, misses int32 }

func (g *memoGate) closed() bool {
	return g != nil && g.misses >= gateMinMisses && gateMissesPerHit*g.hits < g.misses
}

func (g *memoGate) hit() {
	if g != nil {
		g.hits++
	}
}

func (g *memoGate) miss() {
	if g != nil {
		g.misses++
	}
}

// memoEntry is one cone key's recorded enumeration.
type memoEntry struct {
	// stream is the flattened recipe list: per match,
	// [patternIndex, len(covered), leaves..., covered...] with leaves
	// and covered as cone indices (leaf count = the pattern's pin
	// count, recovered at replay time).
	stream []int32
	// tried is the number of pattern plans the recorded walk
	// attempted; replays add it to the matcher's counter so
	// PatternsTried is identical with the memo on or off.
	tried int
}
