package sqlparser

import (
	"sync"
	"sync/atomic"
)

// ShapeCache maps statement shapes (see Shape) to the work a caller
// derives once per shape from its template: the federation's plan
// templates, a gateway's translated statements. It holds at most a fixed
// number of entries; inserting past the bound evicts an arbitrary one.
// Cached values must be immutable, since concurrent executions share
// them. It is safe for concurrent use.
type ShapeCache[K comparable, V any] struct {
	max   int
	mu    sync.RWMutex
	items map[K]V
	stats CacheStats
}

// CacheStats counts a ShapeCache's traffic (atomic; safe to read
// concurrently). Every Get is a hit or a miss.
type CacheStats struct {
	Hits      atomic.Int64
	Misses    atomic.Int64
	Evictions atomic.Int64
}

// NewShapeCache returns an empty cache bounded to max entries.
func NewShapeCache[K comparable, V any](max int) *ShapeCache[K, V] {
	return &ShapeCache[K, V]{max: max, items: make(map[K]V)}
}

// Get returns the entry for key, building and caching it on a miss. An
// error from build is returned and nothing is cached. Concurrent misses
// on one key may each build; the first to finish is kept.
func (c *ShapeCache[K, V]) Get(key K, build func() (V, error)) (V, error) {
	c.mu.RLock()
	v, ok := c.items[key]
	c.mu.RUnlock()
	if ok {
		c.stats.Hits.Add(1)
		return v, nil
	}
	c.stats.Misses.Add(1)
	v, err := build()
	if err != nil {
		return v, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur, ok := c.items[key]; ok {
		return cur, nil
	}
	if len(c.items) >= c.max {
		for k := range c.items {
			delete(c.items, k)
			c.stats.Evictions.Add(1)
			break
		}
	}
	c.items[key] = v
	return v, nil
}

// Stats exposes the cache's live counters.
func (c *ShapeCache[K, V]) Stats() *CacheStats { return &c.stats }
