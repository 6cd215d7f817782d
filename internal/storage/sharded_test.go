package storage

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"neurdb/internal/rel"
)

// TestShardedPoolFeatureParity locks in the acceptance criterion of the
// sharding refactor: for a deterministic single-threaded access trace, the
// buffer-info features the learned optimizer consumes (hit ratio, hit/miss
// counts, per-table residency, resident length) are identical to the
// pre-refactor single-mutex pool, preserved verbatim as legacyBufferPool.
//
// Two configurations are checked: a 1-shard pool must match the legacy
// pool on an eviction-heavy trace (identical exact-LRU semantics, only the
// data structures changed), and the default 16-shard pool must match on a
// trace whose working set is pool-resident (the only regime where a
// partitioned LRU is observationally equivalent to a global one).
func TestShardedPoolFeatureParity(t *testing.T) {
	check := func(name string, got *BufferPool, want *legacyBufferPool, tables int, trace func(i int) (int, uint32)) {
		t.Helper()
		n := 20000
		for i := 0; i < n; i++ {
			table, page := trace(i)
			if g, w := got.Touch(table, page), want.Touch(table, page); g != w {
				t.Fatalf("%s: access %d (table=%d page=%d): hit=%v, legacy hit=%v", name, i, table, page, g, w)
			}
		}
		gh, gm := got.Stats()
		wh, wm := want.Stats()
		if gh != wh || gm != wm {
			t.Fatalf("%s: stats diverged: %d/%d vs legacy %d/%d", name, gh, gm, wh, wm)
		}
		if got.HitRatio() != want.HitRatio() {
			t.Fatalf("%s: hit ratio diverged: %v vs %v", name, got.HitRatio(), want.HitRatio())
		}
		for table := 0; table < tables; table++ {
			if got.ResidentPages(table) != want.ResidentPages(table) {
				t.Fatalf("%s: table %d residency diverged: %d vs %d",
					name, table, got.ResidentPages(table), want.ResidentPages(table))
			}
		}
		if got.Len() != want.Len() {
			t.Fatalf("%s: len diverged: %d vs %d", name, got.Len(), want.Len())
		}
	}

	// 1 shard, eviction churn: 4 tables x 300 pages over 512 capacity.
	r := rand.New(rand.NewSource(7))
	check("1shard-churn", newShardedBufferPool(512, 1), newLegacyBufferPool(512), 4,
		func(int) (int, uint32) { return r.Intn(4), uint32(r.Intn(300)) })

	// 16 shards, resident working set: 4 tables x 50 pages in 1024 capacity.
	r2 := rand.New(rand.NewSource(11))
	check("16shard-resident", newShardedBufferPool(1024, 16), newLegacyBufferPool(1024), 4,
		func(int) (int, uint32) { return r2.Intn(4), uint32(r2.Intn(50)) })
}

// TestShardedPoolEviction exercises overflow across shards: residency never
// exceeds capacity and per-table counts stay consistent with Len.
func TestShardedPoolEviction(t *testing.T) {
	p := newShardedBufferPool(128, 8)
	for i := 0; i < 10000; i++ {
		p.Touch(i%5, uint32(i))
	}
	if p.Len() > p.Capacity() {
		t.Fatalf("len %d exceeds capacity %d", p.Len(), p.Capacity())
	}
	sum := 0
	for table := 0; table < 5; table++ {
		sum += p.ResidentPages(table)
	}
	if sum != p.Len() {
		t.Fatalf("per-table sum %d != len %d", sum, p.Len())
	}
}

// TestTouchAllocatesNothing pins that every Touch path of a sharded pool —
// hit, admission into a free arena slot, and eviction of the LRU entry —
// runs without a heap allocation.
func TestTouchAllocatesNothing(t *testing.T) {
	p := newShardedBufferPool(512, 8)
	page := uint32(0)
	miss := func() { p.Touch(1, page); page++ }
	admit := testing.AllocsPerRun(100, miss)
	if p.Len() != int(page) {
		t.Fatalf("admission phase evicted: %d resident of %d admitted", p.Len(), page)
	}
	hit := testing.AllocsPerRun(100, func() { p.Touch(1, 0) })
	for p.Len() < p.Capacity() {
		miss()
	}
	evict := testing.AllocsPerRun(100, miss)
	if hits, misses := p.Stats(); hits != 101 || misses != uint64(page) {
		t.Fatalf("stats %d/%d, want 101 hits and %d misses", hits, misses, page)
	}
	for name, n := range map[string]float64{"admission": admit, "hit": hit, "eviction": evict} {
		if n != 0 {
			t.Errorf("%s path: %v allocations per Touch, want 0", name, n)
		}
	}
}

// TestNewBufferPoolShardScaling pins the auto-sharding policy: tiny pools
// stay single-shard (exact global LRU), large pools fan out to the ceiling.
func TestNewBufferPoolShardScaling(t *testing.T) {
	cases := []struct{ capacity, shards int }{
		{1, 1}, {2, 1}, {63, 1}, {64, 2}, {256, 8}, {4096, 16}, {1 << 20, 16},
	}
	for _, c := range cases {
		if got := len(NewBufferPool(c.capacity).shards); got != c.shards {
			t.Errorf("capacity %d: shards = %d, want %d", c.capacity, got, c.shards)
		}
	}
}

func TestScanBatchVisitsAllRows(t *testing.T) {
	pool := NewBufferPool(64)
	h := NewHeap(1, pool)
	for i := 0; i < 300; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	seen := map[int64]bool{}
	pages := 0
	h.ScanBatch(func(pageID uint32, heads []*Version) bool {
		if pageID != uint32(pages) {
			t.Fatalf("page order: got %d want %d", pageID, pages)
		}
		pages++
		for _, head := range heads {
			if head != nil {
				seen[head.Data[0].AsInt()] = true
			}
		}
		return true
	})
	if len(seen) != 300 || pages != 3 {
		t.Fatalf("scan batch saw %d rows over %d pages", len(seen), pages)
	}
	// Early stop.
	pages = 0
	h.ScanBatch(func(uint32, []*Version) bool { pages++; return false })
	if pages != 1 {
		t.Fatalf("early stop visited %d pages", pages)
	}
	// Page touches were per page, not per row: 3 inserts pages + 4 scan
	// touches (3 full scan + 1 early stop) on 3 distinct pages.
	hits, misses := pool.Stats()
	if misses != 3 {
		t.Fatalf("misses = %d, want 3 (one per page)", misses)
	}
	if hits != 300-3+4 {
		t.Fatalf("hits = %d", hits)
	}
}

func TestScanBatchSlotIdentity(t *testing.T) {
	h := NewHeap(1, nil)
	var ids []RowID
	for i := 0; i < 200; i++ {
		ids = append(ids, insertRow(h, rel.Row{rel.Int(int64(i))}, 1))
	}
	i := 0
	scanRows(h, func(got RowID, _ *Version) bool {
		if got != ids[i] {
			t.Fatalf("row %d: id %v want %v", i, got, ids[i])
		}
		i++
		return true
	})
	if i != 200 {
		t.Fatalf("visited %d rows", i)
	}
}

// TestHeapConcurrentBatchScanStress runs parallel InsertBatch / Heads / ScanBatch
// / Vacuum against one heap attached to a sharded pool. Run under -race it
// verifies that page snapshots taken by scans cannot race with Vacuum's
// slot writes, and that the sharded pool tolerates concurrent touches.
func TestHeapConcurrentBatchScanStress(t *testing.T) {
	pool := newShardedBufferPool(256, 16)
	h := NewHeap(1, pool)
	const writers = 4
	var wg, writerWG sync.WaitGroup
	var stop atomic.Bool

	for g := 0; g < writers; g++ {
		writerWG.Add(1)
		go func(g int) {
			defer writerWG.Done()
			for i := 0; i < 500; i++ {
				id := insertRow(h, rel.Row{rel.Int(int64(g*1000 + i))}, uint64(g+1))
				v := headAt(h, id)
				v.SetBeginTS(1)
				if i%3 == 0 {
					// Committed delete: eligible for vacuum.
					v.SetEndTS(2)
				}
			}
		}(g)
	}
	// Batch scanners.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				rows := 0
				h.ScanBatch(func(_ uint32, heads []*Version) bool {
					for _, head := range heads {
						if head != nil && head.EndTS() == InfinityTS {
							rows++
						}
					}
					return true
				})
			}
		}()
	}
	// Point readers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(3))
		for !stop.Load() {
			id := RowID{Page: uint32(r.Intn(16)), Slot: uint32(r.Intn(RowsPerPage))}
			if v := headAt(h, id); v != nil {
				_ = v.Data[0].AsInt()
			}
		}
	}()
	// Vacuum loop.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			h.Vacuum(5)
		}
	}()

	// Writers finish first, then stop the scanners/readers/vacuum.
	writerWG.Wait()
	stop.Store(true)
	wg.Wait()

	// Each writer inserts 500 rows and deletes the 167 with i%3==0.
	want := writers * (500 - 167)
	if got := liveChains(h); got != want {
		t.Fatalf("live rows = %d, want %d", got, want)
	}
	if pool.Len() > pool.Capacity() {
		t.Fatalf("pool overflowed: %d > %d", pool.Len(), pool.Capacity())
	}
}
