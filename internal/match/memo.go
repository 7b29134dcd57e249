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
// as cone indices rather than node pointers. A hit replays the stream
// against the current root's cone nodes and skips the trie walk
// entirely; a miss runs the ordinary walk and records it. A hit
// allocates nothing: the key lives in the encoder's buffer, the map
// probe does not copy it, and the replay fills the matcher's one
// reused Match.
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
// pooled matcher's table lives for one Map call and every parallel
// labeling worker records its own. The table holds at most
// maxMemoEntries recipes; once full it stops recording and keeps
// serving hits. Nothing is evicted.

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
