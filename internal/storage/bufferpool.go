package storage

import (
	"sync"
	"sync/atomic"
)

// pageKey identifies a page across tables.
type pageKey struct {
	table int
	page  uint32
}

// hash mixes table and page ids (splitmix64 finalizer). Shard selection
// uses the high bits and bucket selection the low bits, so the two are
// decorrelated; a multiplicative mix keeps sequential scans from piling
// consecutive pages onto one shard.
func (k pageKey) hash() uint64 {
	h := uint64(k.table)<<32 ^ uint64(k.page)
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	return h
}

// defaultPoolShards is the shard-count ceiling for NewBufferPool.
const defaultPoolShards = 16

// minPagesPerShard keeps tiny pools unsharded: below this many pages per
// shard, splitting the LRU changes eviction behaviour noticeably and buys no
// concurrency worth having.
const minPagesPerShard = 32

// entry is one resident page in a shard: a slot in the preallocated entry
// arena, chained into its hash bucket and doubly linked in LRU order.
// Intrusive int32 links instead of container/list mean the hot path touches
// no allocator and no pointer-heavy nodes.
type entry struct {
	key        pageKey
	hnext      int32 // next entry in the hash-bucket chain (-1 = end)
	prev, next int32 // LRU neighbours (-1 = end); prev side is MRU
}

// poolShard is one independently locked exact-LRU region of the pool.
// Hit/miss counters are atomics so stats reads never take the shard lock.
type poolShard struct {
	mu      sync.Mutex
	entries []entry // arena, len = capacity; index is the entry id
	buckets []int32 // hash table: bucket -> first entry id (-1 = empty)
	bmask   uint32
	used    int   // arena slots in use; admission fills 0..capacity-1, then evicts
	head    int32 // MRU entry (-1 = empty)
	tail    int32 // LRU entry (-1 = empty)

	hits, misses atomic.Uint64
}

func newPoolShard(capacity int) *poolShard {
	nbuckets := 8
	for nbuckets < 2*capacity {
		nbuckets *= 2
	}
	s := &poolShard{
		entries: make([]entry, capacity),
		buckets: make([]int32, nbuckets),
		bmask:   uint32(nbuckets - 1),
		head:    -1,
		tail:    -1,
	}
	for i := range s.buckets {
		s.buckets[i] = -1
	}
	return s
}

// touch records an access within this shard: exact LRU with admission on
// miss, identical semantics to the original single-mutex pool.
func (s *poolShard) touch(key pageKey, h uint64) bool {
	s.mu.Lock()
	b := uint32(h) & s.bmask
	for i := s.buckets[b]; i >= 0; i = s.entries[i].hnext {
		if s.entries[i].key == key {
			s.moveToFront(i)
			s.mu.Unlock()
			s.hits.Add(1)
			return true
		}
	}
	// Miss: admit, evicting this shard's LRU entry if the arena is full.
	var idx int32
	if s.used < len(s.entries) {
		idx = int32(s.used)
		s.used++
	} else {
		idx = s.tail
		s.unlink(idx)
		s.bucketRemove(s.entries[idx].key, idx)
	}
	e := &s.entries[idx]
	e.key = key
	e.hnext = s.buckets[b]
	s.buckets[b] = idx
	e.prev = -1
	e.next = s.head
	if s.head >= 0 {
		s.entries[s.head].prev = idx
	}
	s.head = idx
	if s.tail < 0 {
		s.tail = idx
	}
	s.mu.Unlock()
	s.misses.Add(1)
	return false
}

// moveToFront makes entry i the MRU. Caller holds mu.
func (s *poolShard) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	e := &s.entries[i]
	e.prev = -1
	e.next = s.head
	if s.head >= 0 {
		s.entries[s.head].prev = i
	}
	s.head = i
	if s.tail < 0 {
		s.tail = i
	}
}

// unlink removes entry i from the LRU list. Caller holds mu.
func (s *poolShard) unlink(i int32) {
	e := &s.entries[i]
	if e.prev >= 0 {
		s.entries[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next >= 0 {
		s.entries[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
}

// bucketRemove detaches entry idx from key's hash chain. Caller holds mu.
func (s *poolShard) bucketRemove(key pageKey, idx int32) {
	b := uint32(key.hash()) & s.bmask
	if s.buckets[b] == idx {
		s.buckets[b] = s.entries[idx].hnext
		return
	}
	for i := s.buckets[b]; i >= 0; i = s.entries[i].hnext {
		if s.entries[i].hnext == idx {
			s.entries[i].hnext = s.entries[idx].hnext
			return
		}
	}
}

// residentPages counts the shard's resident pages of a table by walking the
// used part of the arena: every slot below used holds a resident page.
func (s *poolShard) residentPages(table int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.entries[:s.used] {
		if s.entries[i].key.table == table {
			n++
		}
	}
	return n
}

// BufferPool is an LRU page cache accountant. All data actually lives in
// process memory; the pool tracks which pages would be resident in a real
// bounded buffer. It keeps two things: exact-LRU membership per shard and
// atomic hit/miss counters. Those yield the "buffer information" the
// learned query optimizer reads (paper Fig. 5: HitRatio, Len/Capacity,
// ResidentFraction) and the Stats the benchmark reads; per-table residency
// is computed when read, so the access path maintains no tallies.
//
// The pool is sharded by pageKey hash: each shard owns an independent mutex,
// an exact-LRU arena, and a slice of the capacity, so concurrent scans do
// not serialize on one lock and the per-access cost stays allocation-free.
// Aggregate reads (Stats, HitRatio, ResidentPages, Len) merge across
// shards. A 1-shard pool preserves exact global-LRU behaviour.
type BufferPool struct {
	capacity int
	shards   []*poolShard
	mask     uint64 // len(shards)-1; shard count is a power of two
}

// NewBufferPool creates a pool that holds at most capacity pages, sharded
// up to defaultPoolShards ways (fewer for small capacities, so tiny pools
// keep exact global-LRU behaviour).
func NewBufferPool(capacity int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	shards := 1
	for shards*2 <= defaultPoolShards && capacity/(shards*2) >= minPagesPerShard {
		shards *= 2
	}
	return newShardedBufferPool(capacity, shards)
}

// newShardedBufferPool creates a pool with an explicit shard count (rounded
// down to a power of two, clamped to [1, capacity]). A 1-shard pool behaves
// exactly like the pre-sharding single-mutex implementation; tests use it
// as the reference.
func newShardedBufferPool(capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	shards = max(min(shards, capacity), 1)
	pow := 1
	for pow*2 <= shards {
		pow *= 2
	}
	shards = pow
	b := &BufferPool{capacity: capacity, mask: uint64(shards - 1)}
	base, rem := capacity/shards, capacity%shards
	for i := 0; i < shards; i++ {
		c := base
		if i < rem {
			c++
		}
		b.shards = append(b.shards, newPoolShard(c))
	}
	return b
}

// Touch records an access to (table, page), returning true on a buffer hit.
// Misses admit the page, evicting that shard's LRU page if at capacity.
func (b *BufferPool) Touch(table int, page uint32) bool {
	key := pageKey{table, page}
	h := key.hash()
	return b.shards[(h>>48)&b.mask].touch(key, h)
}

// HitRatio returns hits/(hits+misses), or 1 when no accesses happened.
//
//neurdb:reserved direction 15
func (b *BufferPool) HitRatio() float64 {
	hits, misses := b.Stats()
	total := hits + misses
	if total == 0 {
		return 1
	}
	return float64(hits) / float64(total)
}

// Stats returns cumulative hit and miss counts, merged across shards.
func (b *BufferPool) Stats() (hits, misses uint64) {
	for _, s := range b.shards {
		hits += s.hits.Load()
		misses += s.misses.Load()
	}
	return hits, misses
}

// ResidentPages returns how many pages of the table are currently cached.
// It walks every shard's arena under that shard's lock, so it costs
// O(capacity); the learned optimizer calls it once per table it ranks.
func (b *BufferPool) ResidentPages(table int) int {
	total := 0
	for _, s := range b.shards {
		total += s.residentPages(table)
	}
	return total
}

// ResidentFraction returns the cached fraction of a table given its total
// page count (1 if the table has no pages).
//
//neurdb:reserved direction 15
func (b *BufferPool) ResidentFraction(table, totalPages int) float64 {
	if totalPages <= 0 {
		return 1
	}
	return min(float64(b.ResidentPages(table))/float64(totalPages), 1)
}

// Capacity returns the configured page capacity.
//
//neurdb:reserved direction 15
func (b *BufferPool) Capacity() int { return b.capacity }

// Len returns the number of currently resident pages.
//
//neurdb:reserved direction 15
func (b *BufferPool) Len() int {
	total := 0
	for _, s := range b.shards {
		s.mu.Lock()
		total += s.used
		s.mu.Unlock()
	}
	return total
}
