package store

import (
	"container/list"
	"sync"
)

// Cache is a byte-bounded LRU over decoded segment pages, shared by
// every random reader of one spilled structure (single-row serving
// reads; sequential passes bring their own page cursors and never come
// here). Values are opaque to the cache; the loader reports each
// value's resident size and the cache evicts least-recently-used
// entries until it fits its capacity again.
//
// Get serializes loads under the cache mutex: a single-flight load
// guarantees a page is never decoded twice concurrently nor
// double-counted against the budget. Random reads pay for that with
// one page decode per miss, however short the row they wanted.
type Cache struct {
	mu       sync.Mutex
	capBytes int64
	used     int64
	ll       *list.List // front = most recently used
	idx      map[uint64]*list.Element
	hits     uint64
	misses   uint64
}

type cacheEntry struct {
	key  uint64
	val  any
	size int64
}

// CacheStats is a point-in-time snapshot of a cache's effectiveness.
type CacheStats struct {
	Hits, Misses uint64
	// Bytes is the resident size of the cached values; Entries their
	// count.
	Bytes   int64
	Entries int
}

// HitRate returns Hits/(Hits+Misses), 0 when the cache was never read.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// NewCache returns an LRU cache bounded at capBytes (minimum one
// entry: a value larger than the whole capacity still resides while
// pinned as most recently used, and is evicted by the next insert).
func NewCache(capBytes int64) *Cache {
	if capBytes < 1 {
		capBytes = 1
	}
	return &Cache{capBytes: capBytes, ll: list.New(), idx: make(map[uint64]*list.Element)}
}

// Get returns the cached value for key, invoking load on a miss. load
// returns the value, its resident size in bytes, and an error; errors
// are returned to the caller and nothing is cached.
func (c *Cache) Get(key uint64, load func() (any, int64, error)) (any, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.idx[key]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).val, nil
	}
	c.misses++
	val, size, err := load()
	if err != nil {
		return nil, err
	}
	el := c.ll.PushFront(&cacheEntry{key: key, val: val, size: size})
	c.idx[key] = el
	c.used += size
	for c.used > c.capBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.idx, e.key)
		c.used -= e.size
	}
	return val, nil
}

// Drop evicts every entry whose key satisfies match. A paged structure
// that rewrites one of its streams calls it so no reader can be served
// a page of the replaced contents.
func (c *Cache) Drop(match func(key uint64) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*cacheEntry); match(e.key) {
			c.ll.Remove(el)
			delete(c.idx, e.key)
			c.used -= e.size
		}
		el = next
	}
}

// Stats returns the cache's hit/miss counters and residency.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Bytes: c.used, Entries: c.ll.Len()}
}
