package match

import (
	"sync"
	"sync/atomic"
)

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
// A Memo maps cone keys to the full ordered match list recorded as a
// *recipe stream*: pattern indices plus leaf/covered bindings encoded
// as cone indices rather than node pointers. A hit replays the stream
// against the current root's cone nodes and skips the trie walk entirely;
// a miss runs the ordinary walk and records it. A hit allocates
// nothing: the key lives in the encoder's buffer, the map probe does
// not copy it, and the replay fills the matcher's one reused Match.
// Because recipes hold no node pointers, entries are valid across
// subject graphs — a table attached to a compiled library is warmed by
// every circuit mapped against it.
//
// Replay fidelity: the recorded stream is the complete yield sequence
// of a fresh enumeration, in order, and equal keys guarantee (see
// subject/cone.go) that a fresh enumeration at the hitting root would
// produce the structurally identical sequence. Downstream tie-breaks
// that depend on enumeration order therefore resolve identically with
// the memo on or off, which is what keeps mapped netlists
// byte-identical in both modes.
//
// The table is sharded 64 ways; each shard is an independently locked
// map with approximate-LRU eviction (sampled oldest-of-K on insert
// past the bound), so PR 1's parallel labeling workers and concurrent
// mapd requests contend only when they hash to the same shard.

// memoShards is the shard count (power of two; the shard is the low
// bits of an FNV-1a hash of the key).
const memoShards = 64

// DefaultMemoEntries bounds a NewMemo(0) table. At a few hundred
// bytes per entry this caps the table in the tens of megabytes.
const DefaultMemoEntries = 1 << 16

// memoEvictSample is how many entries an over-full shard inspects to
// pick its approximate-LRU victim.
const memoEvictSample = 8

// maxMemoDepth bounds the key depth: a root whose key would be deeper
// (its signature bucket holds a pathologically deep pattern) walks
// uncached, since such keys grow exponentially with sharing and hit
// rates collapse. Roots of shallower buckets keep the memo.
const maxMemoDepth = 32

// memoEntry is one cone key's recorded enumeration. stream and tried
// are immutable after insertion; lastUse is guarded by the shard lock.
type memoEntry struct {
	// stream is the flattened recipe list: per match,
	// [patternIndex, len(covered), leaves..., covered...] with leaves
	// and covered as cone indices (leaf count = the pattern's pin
	// count, recovered at replay time).
	stream []int32
	// tried is the number of pattern plans the recorded walk
	// attempted; replays add it to the matcher's counter so
	// PatternsTried is identical with the memo on or off.
	tried   int32
	lastUse uint64
}

type memoShard struct {
	mu sync.Mutex
	m  map[string]*memoEntry
}

// Memo is a bounded, sharded cone-key → recipe table, safe for
// concurrent use. Create with NewMemo and attach to matchers via
// WithMemo (NewMatcher) or SetMemo; matchers sharing one table warm
// each other, including across Matcher.Clone and across requests when
// the table lives in a compiled library.
type Memo struct {
	perShard int
	tick     atomic.Uint64

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	entries   atomic.Int64

	shards [memoShards]memoShard
}

// NewMemo builds a table bounded to maxEntries recipes (<= 0 selects
// DefaultMemoEntries).
func NewMemo(maxEntries int) *Memo {
	if maxEntries <= 0 {
		maxEntries = DefaultMemoEntries
	}
	per := maxEntries / memoShards
	if per < 1 {
		per = 1
	}
	m := &Memo{perShard: per}
	for i := range m.shards {
		m.shards[i].m = make(map[string]*memoEntry)
	}
	return m
}

// MemoStats is a point-in-time view of a table's counters. Hits,
// Misses and Evictions are cumulative across every matcher that ever
// used the table (unlike the per-run counters in core.Stats).
type MemoStats struct {
	Entries   int
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// Stats snapshots the table.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Entries:   int(m.entries.Load()),
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Evictions: m.evictions.Load(),
	}
}

// shard picks the shard for a key by FNV-1a.
func (m *Memo) shard(key []byte) *memoShard {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime64
	}
	return &m.shards[h&(memoShards-1)]
}

// lookup returns the recorded stream and tried count for key. The
// returned stream is immutable; callers must not modify it.
func (m *Memo) lookup(key []byte) (stream []int32, tried int, ok bool) {
	sh := m.shard(key)
	sh.mu.Lock()
	e := sh.m[string(key)] // alloc-free map probe
	if e != nil {
		e.lastUse = m.tick.Add(1)
		stream, tried = e.stream, int(e.tried)
	}
	sh.mu.Unlock()
	if e == nil {
		m.misses.Add(1)
		return nil, 0, false
	}
	m.hits.Add(1)
	return stream, tried, true
}

// insert records a completed enumeration under key. stream is copied.
// Races between equal-key inserters are benign — equal keys record
// value-identical streams, and the first insert wins. Past the shard
// bound the approximately least-recently-used of a small sample is
// evicted first.
func (m *Memo) insert(key []byte, stream []int32, tried int) {
	cp := make([]int32, len(stream))
	copy(cp, stream)
	e := &memoEntry{stream: cp, tried: int32(tried)}
	sh := m.shard(key)
	sh.mu.Lock()
	if _, dup := sh.m[string(key)]; dup {
		sh.mu.Unlock()
		return
	}
	if len(sh.m) >= m.perShard {
		var victim string
		var oldest uint64
		n := 0
		for k, v := range sh.m {
			if n == 0 || v.lastUse < oldest {
				victim, oldest = k, v.lastUse
			}
			n++
			if n >= memoEvictSample {
				break
			}
		}
		delete(sh.m, victim)
		m.evictions.Add(1)
		m.entries.Add(-1)
	}
	e.lastUse = m.tick.Add(1)
	sh.m[string(key)] = e
	m.entries.Add(1)
	sh.mu.Unlock()
}
