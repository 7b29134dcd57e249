package service

import (
	"container/list"
	"sync"

	"dagcover/internal/store"
)

// resultCache is the in-memory tier of the mapping result cache: a
// byte-budgeted two-segment LRU (SLRU) over serialized response
// payloads. New entries land in the probation segment; a hit while on
// probation promotes to the protected segment, so one-shot traffic
// (a loadgen sweep, a CI smoke) churns probation without evicting the
// circuits that actually repeat. The protected segment overflows back
// into probation (as most-recently-used), never straight out, and
// eviction always takes probation's tail first.
// A second index, the raw-request lookaside, aliases entries by the
// hash of the raw request (BLIF bytes + library key + options) so that
// a repeated request is served without parsing the netlist or building
// the subject graph at all — on large inputs those dwarf the cache
// lookup itself. Aliases are established on the slow path, where both
// keys are known, and die with their entry.
type resultCache struct {
	mu sync.Mutex
	// maxBytes is the total payload budget; protectedMax is the slice
	// of it the protected segment may hold (the classic 80% split).
	maxBytes     int64
	protectedMax int64

	probation *list.List // of *rcEntry, front = most recent
	protected *list.List
	index     map[store.Key]*rcEntry
	raw       map[store.Key]*rcEntry // raw-request aliases
	bytes     int64                  // both segments
	protBytes int64

	hits, misses, inserts, evictions uint64
}

// rcEntry is one cached result: the canonical payload plus its SHA-256
// (the response's result_sha; for entries loaded from disk it equals
// the store object's payload digest).
type rcEntry struct {
	key     store.Key
	rawKeys []store.Key // lookaside aliases to drop on eviction
	rcView
	protected bool
	elem      *list.Element
}

// rcView is what a lookup returns: the canonical payload plus the
// sidecar metadata (library, subject digest, generation cost) that
// lets the serving path attribute the hit without decoding the
// payload, and the supergate artifact SHA a server with a store
// reports beside every serving of the result (empty otherwise; kept
// out of the payload so result_sha does not depend on the store).
type rcView struct {
	payload       []byte
	sha           string
	genMillis     float64
	library       string
	subjectSHA    string
	sgArtifactSHA string
}

func newResultCache(maxBytes int64) *resultCache {
	return &resultCache{
		maxBytes:     maxBytes,
		protectedMax: maxBytes - maxBytes/5,
		probation:    list.New(),
		protected:    list.New(),
		index:        make(map[store.Key]*rcEntry),
		raw:          make(map[store.Key]*rcEntry),
	}
}

// get returns the cached payload, its SHA, and the recorded generation
// cost. A probation hit promotes the entry to protected.
func (c *resultCache) get(key store.Key) (rcView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.index[key])
}

// getRaw is get through the raw-request lookaside.
func (c *resultCache) getRaw(rawKey store.Key) (rcView, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touch(c.raw[rawKey])
}

// link aliases rawKey to key's entry (a no-op when the entry is gone
// or the alias already set), so the next identical request skips
// straight past parsing.
func (c *resultCache) link(rawKey, key store.Key) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.index[key]
	if !ok {
		return
	}
	if _, dup := c.raw[rawKey]; dup {
		return
	}
	c.raw[rawKey] = e
	e.rawKeys = append(e.rawKeys, rawKey)
}

// touch records the hit/miss and refreshes recency (promoting a
// probation entry to protected). Callers hold c.mu.
func (c *resultCache) touch(e *rcEntry) (rcView, bool) {
	if e == nil {
		c.misses++
		return rcView{}, false
	}
	c.hits++
	if e.protected {
		c.protected.MoveToFront(e.elem)
		return e.rcView, true
	}
	// Promote: move from probation to protected, demoting protected's
	// tail back to probation until the protected budget holds.
	c.probation.Remove(e.elem)
	e.protected = true
	e.elem = c.protected.PushFront(e)
	c.protBytes += int64(len(e.payload))
	for c.protBytes > c.protectedMax {
		tail := c.protected.Back()
		if tail == nil || tail == e.elem {
			break
		}
		d := tail.Value.(*rcEntry)
		c.protected.Remove(tail)
		d.protected = false
		d.elem = c.probation.PushFront(d)
		c.protBytes -= int64(len(d.payload))
	}
	return e.rcView, true
}

// put inserts (or refreshes) a payload on probation and evicts until
// the total budget holds. Payloads over the whole budget are not
// cached at all.
func (c *resultCache) put(key store.Key, v rcView) {
	if int64(len(v.payload)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[key]; ok {
		// Same key means same content (the key is a content address);
		// just refresh recency.
		if e.protected {
			c.protected.MoveToFront(e.elem)
		} else {
			c.probation.MoveToFront(e.elem)
		}
		return
	}
	e := &rcEntry{key: key, rcView: v}
	e.elem = c.probation.PushFront(e)
	c.index[key] = e
	c.bytes += int64(len(v.payload))
	c.inserts++
	for c.bytes > c.maxBytes {
		tail := c.probation.Back()
		if tail == nil || tail.Value.(*rcEntry) == e {
			// Probation holds nothing evictable — it is empty, or only the
			// entry just inserted — so take protected's tail instead: the
			// byte budget always wins over segment membership.
			tail = c.protected.Back()
			if tail == nil {
				break
			}
			d := tail.Value.(*rcEntry)
			c.protected.Remove(tail)
			c.protBytes -= int64(len(d.payload))
			c.drop(d)
			continue
		}
		d := tail.Value.(*rcEntry)
		c.probation.Remove(tail)
		c.drop(d)
	}
}

// drop finishes an eviction: the entry leaves both indexes (including
// every raw-request alias) and the byte accounting. Callers hold c.mu
// and have already unlinked the list element.
func (c *resultCache) drop(d *rcEntry) {
	delete(c.index, d.key)
	for _, rk := range d.rawKeys {
		delete(c.raw, rk)
	}
	c.bytes -= int64(len(d.payload))
	c.evictions++
}

// resultCacheStats is a point-in-time gauge view (counter fields for
// the hit/miss split live in the server metrics, which also see disk
// hits and coalesced requests this struct cannot).
type resultCacheStats struct {
	entries          int
	bytes            int64
	maxBytes         int64
	protectedEntries int
	protectedBytes   int64
}

func (c *resultCache) stats() resultCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return resultCacheStats{
		entries:          len(c.index),
		bytes:            c.bytes,
		maxBytes:         c.maxBytes,
		protectedEntries: c.protected.Len(),
		protectedBytes:   c.protBytes,
	}
}
