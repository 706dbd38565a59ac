package fused

import "sync"

// Cache is the engine-wide fused-code cache: compiled programs keyed by a
// string the caller guarantees is injective over everything Compile reads —
// the advm builder uses the segment's canonical plan serialization, in which
// every scanned column and kind, stage lambda and column, and probe build
// side appears. Negative entries are cached too — a segment the compiler
// declined once is declined from the cache from then on, so unfusable hot
// plans pay the pattern-match exactly once.
//
// The cache is bounded: a workload cycling through endlessly distinct plans
// recycles the least-recently-used slot instead of growing without bound
// (programs already mounted on running queries stay valid — eviction only
// forgets the cache entry).
type Cache struct {
	mu      sync.Mutex
	entries map[string]*cacheEntry
	clock   int64
	limit   int

	hits, misses int64
}

type cacheEntry struct {
	prog *Program // nil = negative entry (segment not fusable)
	use  int64
}

// DefaultCacheSize bounds the number of cached programs per engine.
const DefaultCacheSize = 256

// NewCache creates a cache holding up to limit programs (DefaultCacheSize
// when limit is not positive).
func NewCache(limit int) *Cache {
	if limit <= 0 {
		limit = DefaultCacheSize
	}
	return &Cache{entries: make(map[string]*cacheEntry), limit: limit}
}

// Lookup returns the cached program for key. present reports whether the
// key was cached at all; a present key with a nil program is a negative
// entry (the segment is known not to fuse).
func (c *Cache) Lookup(key string) (prog *Program, present bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.clock++
	e.use = c.clock
	return e.prog, true
}

// Store caches a compilation outcome for key (prog nil = negative entry).
func (c *Cache) Store(key string, prog *Program) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		c.clock++
		e.prog, e.use = prog, c.clock
		return
	}
	if len(c.entries) >= c.limit {
		var victimKey string
		var victim *cacheEntry
		for k, e := range c.entries {
			if victim == nil || e.use < victim.use {
				victimKey, victim = k, e
			}
		}
		delete(c.entries, victimKey)
	}
	c.clock++
	c.entries[key] = &cacheEntry{prog: prog, use: c.clock}
}

// Stats reports cache entry count and hit/miss totals.
func (c *Cache) Stats() (entries int, hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries), c.hits, c.misses
}
