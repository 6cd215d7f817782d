package storage

import (
	"fmt"
	"sync"
	"testing"

	"neurdb/internal/rel"
)

// The helpers below are how these suites reach the heap one row at a
// time: the heap itself is entered a batch (InsertBatch, Heads) or a page
// (ScanBatch over PageHeads) at a time.

// insertRow appends one row as its own batch.
func insertRow(h *Heap, row rel.Row, xmin uint64) RowID {
	ids, _ := h.InsertBatch([]rel.Row{row}, xmin, nil, nil)
	return ids[0]
}

// headAt returns the chain head at id, or nil.
func headAt(h *Heap, id RowID) *Version { return h.Heads([]RowID{id}, nil)[0] }

// scanRows visits every chain head in heap order until visit returns false.
func scanRows(h *Heap, visit func(RowID, *Version) bool) {
	h.ScanBatch(func(pageID uint32, heads []*Version) bool {
		for slot, head := range heads {
			if head != nil && !visit(RowID{Page: pageID, Slot: uint32(slot)}, head) {
				return false
			}
		}
		return true
	})
}

// liveChains counts the chains whose head no deleter has stamped.
func liveChains(h *Heap) int {
	n := 0
	scanRows(h, func(_ RowID, head *Version) bool {
		if head.EndTS() == InfinityTS {
			n++
		}
		return true
	})
	return n
}

func TestHeapInsertScan(t *testing.T) {
	h := NewHeap(1, nil)
	var ids []RowID
	for i := 0; i < 300; i++ {
		ids = append(ids, insertRow(h, rel.Row{rel.Int(int64(i))}, 1))
	}
	if n := liveChains(h); n != 300 {
		t.Fatalf("live rows = %d", n)
	}
	if h.NumPages() != 3 { // 300 rows at 128/page
		t.Fatalf("pages = %d, want 3", h.NumPages())
	}
	seen := map[int64]bool{}
	scanRows(h, func(id RowID, v *Version) bool {
		seen[v.Data[0].AsInt()] = true
		return true
	})
	if len(seen) != 300 {
		t.Fatalf("scan saw %d rows", len(seen))
	}
	// Head returns the inserted version.
	v := headAt(h, ids[42])
	if v == nil || v.Data[0].AsInt() != 42 {
		t.Fatal("Head wrong")
	}
	// Out-of-range Head is nil.
	if headAt(h, RowID{Page: 99, Slot: 0}) != nil || headAt(h, RowID{Page: 0, Slot: 999}) != nil {
		t.Fatal("out-of-range Head should be nil")
	}
}

func TestHeapScanEarlyStop(t *testing.T) {
	h := NewHeap(1, nil)
	for i := 0; i < 10; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	count := 0
	scanRows(h, func(RowID, *Version) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestHeapSetHeadAndVersionChain(t *testing.T) {
	h := NewHeap(1, nil)
	id := insertRow(h, rel.Row{rel.Int(1)}, 1)
	old := headAt(h, id)
	old.SetBeginTS(5)
	old.SetEndTS(10)
	old.SetXMax(2)
	newer := NewVersion(rel.Row{rel.Int(2)}, 2, old)
	newer.SetBeginTS(10)
	h.SetHead(id, newer)
	got := headAt(h, id)
	if got.Data[0].AsInt() != 2 || got.Next() != old {
		t.Fatal("SetHead chain wrong")
	}
}

func TestHeapVacuumAndSlotReuse(t *testing.T) {
	h := NewHeap(1, nil)
	id := insertRow(h, rel.Row{rel.Int(1)}, 1)
	v := headAt(h, id)
	v.SetBeginTS(1)
	v.SetEndTS(5) // deleted at ts 5
	if n := liveChains(h); n != 0 {
		t.Fatalf("live rows after delete = %d", n)
	}
	if n := h.Vacuum(10); n != 1 {
		t.Fatalf("vacuum reclaimed %d, want 1", n)
	}
	// Chain should be gone from scans.
	count := 0
	scanRows(h, func(RowID, *Version) bool { count++; return true })
	if count != 0 {
		t.Fatalf("scan after vacuum saw %d", count)
	}
	// Next insert reuses the freed slot.
	id2 := insertRow(h, rel.Row{rel.Int(2)}, 2)
	if id2 != id {
		t.Fatalf("slot not reused: %v vs %v", id2, id)
	}
	// Vacuum trims dead middle versions but keeps the live head.
	id3 := insertRow(h, rel.Row{rel.Int(3)}, 3)
	head := headAt(h, id3)
	head.SetBeginTS(3)
	dead := NewVersion(rel.Row{rel.Int(0)}, 1, nil)
	dead.SetBeginTS(1)
	dead.SetEndTS(2)
	head.SetNext(dead)
	if n := h.Vacuum(10); n != 1 {
		t.Fatalf("vacuum middle reclaimed %d, want 1", n)
	}
	if headAt(h, id3).Next() != nil {
		t.Fatal("dead tail not trimmed")
	}
}

func TestHeapConcurrentInsertScan(t *testing.T) {
	h := NewHeap(1, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				insertRow(h, rel.Row{rel.Int(int64(g*1000 + i))}, uint64(g))
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 50; i++ {
			scanRows(h, func(RowID, *Version) bool { return true })
		}
		close(done)
	}()
	wg.Wait()
	<-done
	if n := liveChains(h); n != 1600 {
		t.Fatalf("live = %d", n)
	}
}

func TestBufferPoolLRUAndStats(t *testing.T) {
	p := NewBufferPool(2)
	if p.Touch(1, 0) {
		t.Fatal("first access must miss")
	}
	if !p.Touch(1, 0) {
		t.Fatal("second access must hit")
	}
	p.Touch(1, 1) // fills capacity
	p.Touch(1, 2) // evicts LRU page 0
	if p.Touch(1, 0) {
		t.Fatal("page 0 should have been evicted")
	}
	hits, misses := p.Stats()
	if hits != 1 || misses != 4 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if p.Len() != 2 || p.Capacity() != 2 {
		t.Fatal("len/capacity wrong")
	}
	if got := p.HitRatio(); got <= 0 || got >= 1 {
		t.Fatalf("hit ratio = %v", got)
	}
	if fresh := NewBufferPool(2); fresh.Len() != 0 || fresh.HitRatio() != 1 {
		t.Fatal("an untouched pool must be empty with hit ratio 1")
	}
}

func TestBufferPoolResidency(t *testing.T) {
	p := NewBufferPool(10)
	for i := uint32(0); i < 4; i++ {
		p.Touch(7, i)
	}
	p.Touch(8, 0)
	if p.ResidentPages(7) != 4 || p.ResidentPages(8) != 1 {
		t.Fatal("per-table residency wrong")
	}
	if f := p.ResidentFraction(7, 8); f != 0.5 {
		t.Fatalf("fraction = %v", f)
	}
	if p.ResidentFraction(7, 0) != 1 {
		t.Fatal("zero-page table should report 1")
	}
	if p.ResidentFraction(7, 2) != 1 {
		t.Fatal("fraction must clamp to 1")
	}
	// Capacity below 1 clamps.
	if NewBufferPool(0).Capacity() != 1 {
		t.Fatal("capacity clamp failed")
	}
}

func TestBufferPoolEvictionUpdatesPerTable(t *testing.T) {
	p := NewBufferPool(3)
	p.Touch(1, 0)
	p.Touch(1, 1)
	p.Touch(2, 0)
	p.Touch(2, 1) // evicts (1,0)
	if p.ResidentPages(1) != 1 || p.ResidentPages(2) != 2 {
		t.Fatalf("per-table after eviction: t1=%d t2=%d", p.ResidentPages(1), p.ResidentPages(2))
	}
}

func TestHeapWithPoolAccounting(t *testing.T) {
	pool := NewBufferPool(100)
	h := NewHeap(3, pool)
	for i := 0; i < 200; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	scanRows(h, func(RowID, *Version) bool { return true })
	if pool.ResidentPages(3) != h.NumPages() {
		t.Fatalf("resident=%d pages=%d", pool.ResidentPages(3), h.NumPages())
	}
	hits, _ := pool.Stats()
	if hits == 0 {
		t.Fatal("expected buffer hits from scan after inserts")
	}
}

func TestRowIDFormatting(t *testing.T) {
	id := RowID{Page: 2, Slot: 7}
	if fmt.Sprintf("%v", id) != "{2 7}" {
		t.Fatalf("RowID format: %v", id)
	}
}
