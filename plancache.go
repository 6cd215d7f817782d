package neurdb

import (
	"container/list"
	"sync"
	"sync/atomic"

	"neurdb/internal/plan"
)

// DefaultPlanCacheSize bounds the shared plan cache (entries).
const DefaultPlanCacheSize = 256

// planCache is a size-bounded LRU of compiled statements shared by every
// session. Entries are keyed by SQL text and stamped with the catalog
// version they were planned under; a lookup whose stamp no longer
// matches the live version evicts the entry, so DDL and ANALYZE (which bump
// the version) invalidate stale plans without scanning the cache. A hit is a
// lookup answered from the cache; a miss is a plan compiled into it.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*list.Element
	lru     list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

// planEntry is one cached plan. Entries are immutable after creation, so
// statements may hold onto one and revalidate it with a lock-free catalog
// version compare instead of re-entering the cache.
type planEntry struct {
	sql     string
	node    plan.Node
	columns []string
	writes  bool // INSERT/UPDATE/DELETE: refused on a poisoned WAL
	streams bool // a row-producing tree the batch engine streams (SELECT)
	catVer  uint64
}

func newPlanCache() *planCache {
	return &planCache{entries: make(map[string]*list.Element)}
}

// get returns the cached entry for sql if it was planned at catVer,
// counting a hit; a stale entry is evicted.
func (c *planCache) get(sql string, catVer uint64) (*planEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[sql]
	if ok {
		e := el.Value.(*planEntry)
		if e.catVer == catVer {
			c.lru.MoveToFront(el)
			c.hits.Add(1)
			return e, true
		}
		c.lru.Remove(el)
		delete(c.entries, sql)
	}
	return nil, false
}

// put installs (or replaces) an entry, counting the miss that made it and
// evicting the least recently used entry when the cache is full.
func (c *planCache) put(e *planEntry) {
	c.misses.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[e.sql]; ok {
		el.Value = e
		c.lru.MoveToFront(el)
		return
	}
	c.entries[e.sql] = c.lru.PushFront(e)
	for len(c.entries) > DefaultPlanCacheSize {
		oldest := c.lru.Back()
		if oldest == nil {
			break
		}
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).sql)
	}
}

// len returns the current entry count.
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
