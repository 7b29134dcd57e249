package service

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Cache is the compiled-library cache: one resolved library (the
// dagcover.CompiledLibrary, and for a supergate expansion through the
// artifact store the artifact's identity) per distinct library
// content, compiled at most once no matter how many requests race on
// the same key. Keys are content-addressed —
// "builtin:<name>" for the built-in libraries, "sha256:<hex>" for
// uploaded genlib text — so two uploads of byte-identical genlib share
// one compilation and a changed upload can never alias a stale entry.
//
// Entries are never mutated after compilation (CompiledLibrary is
// immutable apart from its internal matcher pool), so lookups after
// the first take only a read lock. Failed compilations are not cached:
// the error is returned to every racing waiter, then the entry is
// dropped so a corrected upload isn't poisoned by a transient failure.
type Cache struct {
	mu      sync.RWMutex
	entries map[string]*cacheEntry
	max     int

	hits     atomic.Uint64
	misses   atomic.Uint64
	compiles atomic.Uint64
}

type cacheEntry struct {
	once sync.Once
	lib  library
	err  error
	// done publishes lib to readers that did not run once.Do (the
	// atomic store/load pair orders the lib write before any Entries
	// read).
	done atomic.Bool
}

// NewCache builds a cache bounded to max entries (<= 0 means 128).
// Past the bound, unknown keys are compiled without being retained, so
// a flood of distinct uploads degrades to per-request compilation
// instead of unbounded memory growth.
func NewCache(max int) *Cache {
	if max <= 0 {
		max = 128
	}
	return &Cache{entries: make(map[string]*cacheEntry), max: max}
}

// HashGenlib returns the cache key for uploaded genlib text.
func HashGenlib(text string) string {
	sum := sha256.Sum256([]byte(text))
	return "sha256:" + hex.EncodeToString(sum[:])
}

// BuiltinKey returns the cache key for a built-in library name.
func BuiltinKey(name string) string { return "builtin:" + name }

// Get returns the library for key, invoking compile at most once per
// key across all concurrent callers. The returned library's hit field
// reports whether the entry already existed when this caller looked it
// up (waiting on a compile another request started still counts as a
// hit: no work was duplicated). Everything else about it is what
// compile returned, so an uncached compile (cache full) still carries
// its own artifact identity.
func (c *Cache) Get(key string, compile func() (library, error)) (library, error) {
	c.mu.RLock()
	e, ok := c.entries[key]
	c.mu.RUnlock()
	if !ok {
		c.mu.Lock()
		e, ok = c.entries[key]
		if !ok {
			if len(c.entries) >= c.max {
				c.mu.Unlock()
				// Cache full: compile uncached rather than grow.
				c.misses.Add(1)
				c.compiles.Add(1)
				lib, err := compile()
				if err != nil {
					return library{}, fmt.Errorf("library compile: %w", err)
				}
				return lib, nil
			}
			e = &cacheEntry{}
			c.entries[key] = e
		}
		c.mu.Unlock()
	}
	hit := ok
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	e.once.Do(func() {
		c.compiles.Add(1)
		e.lib, e.err = compile()
		if e.err == nil {
			e.done.Store(true)
		}
		if e.err != nil {
			c.mu.Lock()
			// Only drop our own failed entry; a later success under
			// the same key must not be evicted by a stale loser.
			if c.entries[key] == e {
				delete(c.entries, key)
			}
			c.mu.Unlock()
		}
	})
	if e.err != nil {
		return library{}, fmt.Errorf("library compile: %w", e.err)
	}
	lib := e.lib
	lib.hit = hit
	return lib, nil
}

// EntryInfo is the /stats view of one cached compiled library: how
// many gates the library holds and how many DAG pattern graphs its
// compilation produced — the figure that makes a supergate-inflated
// entry visible to operators.
type EntryInfo struct {
	Key      string `json:"key"`
	Library  string `json:"library"`
	Gates    int    `json:"gates"`
	Patterns int    `json:"patterns"`
}

// Entries snapshots the cache's compiled entries, sorted by key.
// Entries still compiling are omitted (their counts don't exist yet).
func (c *Cache) Entries() []EntryInfo {
	c.mu.RLock()
	type kv struct {
		key string
		e   *cacheEntry
	}
	all := make([]kv, 0, len(c.entries))
	for k, e := range c.entries {
		all = append(all, kv{k, e})
	}
	c.mu.RUnlock()
	out := make([]EntryInfo, 0, len(all))
	for _, p := range all {
		if !p.e.done.Load() {
			continue
		}
		cl := p.e.lib.cl
		out = append(out, EntryInfo{
			Key:      p.key,
			Library:  cl.Library().Name,
			Gates:    cl.NumGates(),
			Patterns: cl.NumPatterns(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Len reports the number of cached libraries.
func (c *Cache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.entries)
}

// Counters reports cumulative hit/miss/compile counts.
func (c *Cache) Counters() (hits, misses, compiles uint64) {
	return c.hits.Load(), c.misses.Load(), c.compiles.Load()
}
