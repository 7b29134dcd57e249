package service

import (
	"container/list"
	"sync"

	"dagcover/internal/store"
)

// resultCache is the in-memory tier of the mapping result cache: a
// byte-budgeted LRU over serialized response payloads. A hit moves its
// entry to the front; an insert evicts from the back until the budget
// holds.
// A second index, the raw-request lookaside, aliases entries by the
// hash of the raw request (BLIF bytes + library key + options) so that
// a repeated request is served without parsing the netlist or building
// the subject graph at all — on large inputs those dwarf the cache
// lookup itself. Aliases are established on the slow path, where both
// keys are known, and die with their entry.
type resultCache struct {
	mu       sync.Mutex
	maxBytes int64      // total payload budget
	lru      *list.List // of *rcEntry, front = most recent
	index    map[store.Key]*rcEntry
	raw      map[store.Key]*rcEntry // raw-request aliases
	bytes    int64
}

// rcEntry is one cached result: the canonical payload plus its SHA-256
// (the response's result_sha; for entries loaded from disk it equals
// the store object's payload digest).
type rcEntry struct {
	key     store.Key
	rawKeys []store.Key // lookaside aliases to drop on eviction
	rcView
	elem *list.Element
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
		maxBytes: maxBytes,
		lru:      list.New(),
		index:    make(map[store.Key]*rcEntry),
		raw:      make(map[store.Key]*rcEntry),
	}
}

// get returns the cached view and refreshes the entry's recency.
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

// touch moves a found entry to the front. Callers hold c.mu.
func (c *resultCache) touch(e *rcEntry) (rcView, bool) {
	if e == nil {
		return rcView{}, false
	}
	c.lru.MoveToFront(e.elem)
	return e.rcView, true
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

// put inserts (or refreshes) a payload at the front and evicts the
// least recently used entries, with their aliases, until the budget
// holds. Payloads over the whole budget are not cached at all.
func (c *resultCache) put(key store.Key, v rcView) {
	if int64(len(v.payload)) > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.index[key]; ok {
		// Same key means same content (the key is a content address);
		// just refresh recency.
		c.lru.MoveToFront(e.elem)
		return
	}
	e := &rcEntry{key: key, rcView: v}
	e.elem = c.lru.PushFront(e)
	c.index[key] = e
	c.bytes += int64(len(v.payload))
	for c.bytes > c.maxBytes {
		d := c.lru.Remove(c.lru.Back()).(*rcEntry)
		delete(c.index, d.key)
		for _, rk := range d.rawKeys {
			delete(c.raw, rk)
		}
		c.bytes -= int64(len(d.payload))
	}
}

// stats is a point-in-time gauge view: entries, payload bytes and the
// budget (the hit/miss split lives in the server metrics, which also
// see disk hits).
func (c *resultCache) stats() (entries int, bytes, maxBytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index), c.bytes, c.maxBytes
}
