package storage

import (
	"container/list"
	"sync"
)

// legacyBufferPool is the pre-refactor buffer pool, preserved verbatim as
// the golden reference for the feature-parity test and the "before"
// baseline for the sharding benchmarks: one global mutex, container/list
// LRU (one heap allocation per admission), and map-based index. It also
// carries the original per-table residency leak (zero-count entries are
// never deleted), which the parity test works around by checking counts,
// not map sizes.
type legacyBufferPool struct {
	mu       sync.Mutex
	capacity int
	lru      *list.List
	index    map[pageKey]*list.Element

	hits, misses uint64
	perTable     map[int]int
}

func newLegacyBufferPool(capacity int) *legacyBufferPool {
	if capacity < 1 {
		capacity = 1
	}
	return &legacyBufferPool{
		capacity: capacity,
		lru:      list.New(),
		index:    make(map[pageKey]*list.Element),
		perTable: make(map[int]int),
	}
}

func (b *legacyBufferPool) Touch(table int, page uint32) bool {
	key := pageKey{table, page}
	b.mu.Lock()
	defer b.mu.Unlock()
	if el, ok := b.index[key]; ok {
		b.lru.MoveToFront(el)
		b.hits++
		return true
	}
	b.misses++
	if b.lru.Len() >= b.capacity {
		back := b.lru.Back()
		if back != nil {
			victim := back.Value.(pageKey)
			b.lru.Remove(back)
			delete(b.index, victim)
			b.perTable[victim.table]--
		}
	}
	b.index[key] = b.lru.PushFront(key)
	b.perTable[table]++
	return false
}

func (b *legacyBufferPool) Stats() (hits, misses uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.hits, b.misses
}

func (b *legacyBufferPool) HitRatio() float64 {
	hits, misses := b.Stats()
	total := hits + misses
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

func (b *legacyBufferPool) ResidentPages(table int) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.perTable[table]
}

func (b *legacyBufferPool) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lru.Len()
}
