package storage

import (
	"sync"
	"testing"

	"neurdb/internal/rel"
)

// TestMorselSourceCoversAllPagesOnce: concurrent claimers must partition the
// page range exactly — every page claimed once, no overlaps, no gaps.
func TestMorselSourceCoversAllPagesOnce(t *testing.T) {
	h := NewHeap(1, nil)
	const rows = 70*RowsPerPage + 13 // 71 pages, last one partial
	for i := 0; i < rows; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	ms := h.NewMorselSource(16)
	wantMorsels := (71 + 15) / 16
	if got := ms.Morsels(); got != wantMorsels {
		t.Fatalf("Morsels() = %d, want %d", got, wantMorsels)
	}
	var mu sync.Mutex
	claimed := map[uint32]int{}
	seenIdx := map[int]bool{}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				idx, lo, hi, ok := ms.Next()
				if !ok {
					return
				}
				mu.Lock()
				if seenIdx[idx] {
					t.Errorf("morsel %d claimed twice", idx)
				}
				seenIdx[idx] = true
				for p := lo; p < hi; p++ {
					claimed[p]++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if len(claimed) != 71 {
		t.Fatalf("claimed %d distinct pages, want 71", len(claimed))
	}
	for p, n := range claimed {
		if n != 1 {
			t.Fatalf("page %d claimed %d times", p, n)
		}
	}
	// Exhausted sources keep answering not-ok.
	if _, _, _, ok := ms.Next(); ok {
		t.Fatal("Next returned ok after exhaustion")
	}
}

// TestPageHeadsMatchesScanBatch: random-access page reads must see exactly
// what the sequential page scan sees, and report the end of the heap.
func TestPageHeadsMatchesScanBatch(t *testing.T) {
	h := NewHeap(1, nil)
	for i := 0; i < 5*RowsPerPage+7; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	buf := make([]*Version, RowsPerPage)
	pages := 0
	h.ScanBatch(func(id uint32, heads []*Version) bool {
		pages++
		n, ok := h.PageHeads(id, buf)
		if !ok || n != len(heads) {
			t.Fatalf("page %d: PageHeads n=%d ok=%v, scan %d heads", id, n, ok, len(heads))
		}
		for s := 0; s < n; s++ {
			if buf[s] != heads[s] {
				t.Fatalf("page %d slot %d: heads differ", id, s)
			}
		}
		return true
	})
	if pages != 6 {
		t.Fatalf("scan visited %d pages, want 6", pages)
	}
	if n, ok := h.PageHeads(uint32(pages), buf); ok || n != 0 {
		t.Fatalf("out-of-range PageHeads returned %d heads, ok=%v", n, ok)
	}
}

// TestScanBatchCrossesEmptyPages: recovery can leave a page with no slots
// (every row it held was deleted before the checkpoint); the scan must not
// take it for the end of the heap.
func TestScanBatchCrossesEmptyPages(t *testing.T) {
	h := NewHeap(1, nil)
	h.InstallAt(RowID{Page: 2, Slot: 3}, rel.Row{rel.Int(7)}, 1)
	var pages []uint32
	rows := 0
	h.ScanBatch(func(id uint32, heads []*Version) bool {
		pages = append(pages, id)
		for _, head := range heads {
			if head != nil {
				rows++
			}
		}
		return true
	})
	if len(pages) != 3 || rows != 1 {
		t.Fatalf("scan visited pages %v and %d rows, want 3 pages and 1 row", pages, rows)
	}
}

// TestMorselSourceSnapshotsPageCount: pages appended after the source is
// created are not handed out (their rows are invisible to any snapshot taken
// before they committed anyway).
func TestMorselSourceSnapshotsPageCount(t *testing.T) {
	h := NewHeap(1, nil)
	for i := 0; i < 2*RowsPerPage; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 1)
	}
	ms := h.NewMorselSource(1)
	for i := 0; i < 3*RowsPerPage; i++ {
		insertRow(h, rel.Row{rel.Int(int64(i))}, 2)
	}
	total := 0
	for {
		_, lo, hi, ok := ms.Next()
		if !ok {
			break
		}
		total += int(hi - lo)
	}
	if total != 2 {
		t.Fatalf("source handed out %d pages, want the 2-page snapshot", total)
	}
}
