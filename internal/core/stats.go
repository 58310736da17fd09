package core

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"

	"myriad/internal/gtm"
	"myriad/internal/storage"
)

// ---------------------------------------------------------------------
// Statistics (for the cost-based strategy)

// StatsCacheStats counts statistics-cache traffic (atomic; safe to read
// concurrently). Every Stats call is a hit or a miss; every miss either
// starts a pull (Pulls) or waits on one already in flight for the same
// key (SharedPulls).
type StatsCacheStats struct {
	Hits        atomic.Int64
	Misses      atomic.Int64
	Pulls       atomic.Int64
	SharedPulls atomic.Int64
	// Invalidations counts cache slots dropped, cached or in flight.
	Invalidations atomic.Int64
	// DiscardedPulls counts pulls that returned stats but were not
	// cached because their key was invalidated while they ran.
	DiscardedPulls atomic.Int64
}

// statsKey names one export fragment as the planner spelled it. The hit
// path looks it up without case folding, so it allocates nothing;
// invalidation matches names case-insensitively.
type statsKey struct{ site, export string }

// statsSlot is one key's cache entry: a pull in flight while ts is nil,
// cached stats once a pull has set it. The slot's identity is the key's
// generation. Invalidation deletes the slot from the map. A pull then
// caches its result only if its own slot is still the one mapped under
// the key, so a pull that raced a write cannot cache pre-write stats.
// Callers arriving after the invalidation start a fresh pull instead of
// joining the stale one.
type statsSlot struct {
	done chan struct{} // closed once the pull has set ts
	ts   *storage.TableStats
}

// statsCache is the federation's demand-filled statistics cache.
type statsCache struct {
	mu       sync.Mutex
	slots    map[statsKey]*statsSlot
	counters StatsCacheStats
}

// StatsCacheStats exposes the statistics cache's live counters.
func (f *Federation) StatsCacheStats() *StatsCacheStats { return &f.stats.counters }

// Stats implements planner.StatsProvider with a demand-filled cache.
// Concurrent misses on one key share a single pull from the site.
func (f *Federation) Stats(ctx context.Context, site, export string) (*storage.TableStats, bool) {
	c := &f.stats
	key := statsKey{site, export}
	c.mu.Lock()
	s := c.slots[key]
	if s != nil && s.ts != nil {
		ts := s.ts
		c.mu.Unlock()
		c.counters.Hits.Add(1)
		return ts, true
	}
	c.counters.Misses.Add(1)
	if s == nil {
		s = &statsSlot{done: make(chan struct{})}
		c.slots[key] = s
		c.mu.Unlock()
		return f.pull(ctx, key, s)
	}
	c.mu.Unlock()
	// A failed pull deletes its slot before closing done, so a mapped
	// slot without stats is always a pull in flight.
	c.counters.SharedPulls.Add(1)
	select {
	case <-s.done:
		return s.ts, s.ts != nil
	case <-ctx.Done():
		return nil, false
	}
}

// pull fetches key's stats from its site into slot s, which the caller
// has just mapped, and wakes every caller waiting on it.
func (f *Federation) pull(ctx context.Context, key statsKey, s *statsSlot) (*storage.TableStats, bool) {
	c := &f.stats
	c.counters.Pulls.Add(1)
	var ts *storage.TableStats
	if conn, ok := f.Conn(key.site); ok {
		if got, err := conn.Stats(ctx, key.export); err == nil {
			ts = got
		}
	}
	c.mu.Lock()
	s.ts = ts
	switch {
	case c.slots[key] != s:
		if ts != nil {
			c.counters.DiscardedPulls.Add(1)
		}
	case ts == nil:
		delete(c.slots, key) // nothing to cache; the next call pulls again
	}
	c.mu.Unlock()
	close(s.done)
	return ts, ts != nil
}

// InvalidateStats drops the whole statistics cache. It is the wildcard
// for changes the coordinator's write sets cannot name: RefreshSite
// after local DDL, and loads made directly at a site.
func (f *Federation) InvalidateStats() {
	f.stats.drop(func(statsKey) bool { return true })
}

// invalidateWrites is the coordinator's OnFinish hook: it drops the
// cached stats of exactly the exports a finished global transaction
// wrote (every export at a site, for a wildcard Write).
func (f *Federation) invalidateWrites(writes []gtm.Write) {
	f.stats.drop(func(k statsKey) bool {
		for _, w := range writes {
			if strings.EqualFold(k.site, w.Site) && (w.Export == "" || strings.EqualFold(k.export, w.Export)) {
				return true
			}
		}
		return false
	})
}

// drop deletes every slot whose key matches.
func (c *statsCache) drop(match func(statsKey) bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for k := range c.slots {
		if match(k) {
			delete(c.slots, k)
			c.counters.Invalidations.Add(1)
		}
	}
}
