package server

import (
	"container/list"
	"sync"
)

// Cache is the server's result cache: an LRU map from query identity —
// (snapshot fingerprint, pattern structure, resolved option set),
// composed from the request by Server.cacheKey, which says why that
// determines the reply — to the finished response payload. A hit
// returns the identical result (same Matches, same deterministic
// counters) without re-enumeration; snapshots are immutable, and
// unloading a graph explicitly invalidates its entries. All methods
// are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	entries map[string]*list.Element

	hits, misses, invalidations uint64
}

// cacheItem is one LRU node: the key (for map deletion on eviction),
// the graph fingerprint (for invalidation on unload), and the stored
// response value.
type cacheItem struct {
	key string
	fp  uint64
	val any
}

// CacheStats is the /stats view of the cache.
type CacheStats struct {
	// Capacity is the maximum entry count; Entries the current one.
	Capacity int `json:"capacity"`
	Entries  int `json:"entries"`
	// Hits and Misses count Get outcomes; Invalidations counts entries
	// dropped by graph unloads (evictions are not invalidations).
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache{
		cap:     capacity,
		ll:      list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached value for key, marking it most recently used.
func (c *Cache) Get(key string) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*cacheItem).val, true
}

// Put stores val under key, tagged with the graph fingerprint fp for
// invalidation, evicting the least recently used entry when full.
func (c *Cache) Put(key string, fp uint64, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*cacheItem).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.entries[key] = c.ll.PushFront(&cacheItem{key: key, fp: fp, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.entries, last.Value.(*cacheItem).key)
	}
}

// InvalidateGraph drops every entry tagged with fingerprint fp (called
// when a graph is unloaded) and returns how many were removed.
func (c *Cache) InvalidateGraph(fp uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var drop []*list.Element
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if el.Value.(*cacheItem).fp == fp {
			drop = append(drop, el)
		}
	}
	for _, el := range drop {
		c.ll.Remove(el)
		delete(c.entries, el.Value.(*cacheItem).key)
	}
	c.invalidations += uint64(len(drop))
	return len(drop)
}

// Stats returns a snapshot of the cache's gauges.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Capacity:      c.cap,
		Entries:       c.ll.Len(),
		Hits:          c.hits,
		Misses:        c.misses,
		Invalidations: c.invalidations,
	}
}
