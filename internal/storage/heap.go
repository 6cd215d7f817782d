// Package storage implements the physical storage substrate: heap tables
// organized as pages of MVCC version chains, and a buffer pool that keeps
// exact-LRU page membership and hit/miss counts. The learned query
// optimizer's "buffer info" system-condition features (paper Fig. 5) are
// read from those two; nothing else is tracked per access.
package storage

import (
	"math"
	"sync"
	"sync/atomic"

	"neurdb/internal/rel"
)

// RowsPerPage is the heap page fan-out. Pages are the unit the buffer pool
// accounts for.
const RowsPerPage = 128

// InfinityTS marks a version with no end timestamp (still live).
const InfinityTS = math.MaxUint64

// RowID locates a version chain within a heap.
type RowID struct {
	Page uint32
	Slot uint32
}

// page is a fixed-capacity container of version-chain heads.
type page struct {
	id     uint32
	chains []*Version
}

// newPage returns an empty page with room for RowsPerPage chains.
func newPage(id uint32) *page {
	return &page{id: id, chains: make([]*Version, 0, RowsPerPage)}
}

// Heap is an append-only paged table of MVCC version chains. A table-level
// RWMutex guards structure; version-field mutation is coordinated by the
// transaction manager, which serializes writers per row.
type Heap struct {
	mu      sync.RWMutex
	TableID int
	pages   []*page
	free    []RowID // slots of fully-dead chains available for reuse
	pool    *BufferPool
}

// NewHeap creates an empty heap for the given table id, attached to an
// optional buffer pool (nil means unaccounted access).
func NewHeap(tableID int, pool *BufferPool) *Heap {
	return &Heap{TableID: tableID, pool: pool}
}

// NumPages returns the current number of pages.
func (h *Heap) NumPages() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.pages)
}

// InsertBatch appends new version chains for all rows under one lock
// acquisition, appending the assigned RowIDs to ids and the created chain
// heads to heads (aligned). The buffer pool is touched once per distinct
// page written instead of once per row, so bulk loads and multi-VALUES
// INSERT pay page-granular accounting like the batch read path.
//
// Rows that reuse a free slot get a version each. The rows appended to a
// page get theirs from one slab of at most RowsPerPage versions (8 KB), so
// a live version keeps at most its page's slab from being collected.
func (h *Heap) InsertBatch(rows []rel.Row, xmin uint64, ids []RowID, heads []*Version) ([]RowID, []*Version) {
	h.mu.Lock()
	defer h.mu.Unlock()
	lastTouched := uint32(math.MaxUint32)
	var slab []Version // the rest of the current page's slab
	for i, row := range rows {
		var v *Version
		var id RowID
		if n := len(h.free); n > 0 {
			v = NewVersion(row, xmin, nil)
			id = h.free[n-1]
			h.free = h.free[:n-1]
			h.pages[id.Page].chains[id.Slot] = v
		} else {
			if len(h.pages) == 0 || len(h.pages[len(h.pages)-1].chains) >= RowsPerPage {
				h.pages = append(h.pages, newPage(uint32(len(h.pages))))
			}
			p := h.pages[len(h.pages)-1]
			if len(slab) == 0 {
				// Free slots are taken first, so the rows from here on fill
				// this page's room in order.
				slab = make([]Version, min(len(rows)-i, RowsPerPage-len(p.chains)))
			}
			v, slab = &slab[0], slab[1:]
			v.Data, v.XMin = row, xmin
			v.endTS.Store(InfinityTS)
			p.chains = append(p.chains, v)
			id = RowID{Page: p.id, Slot: uint32(len(p.chains) - 1)}
		}
		if id.Page != lastTouched {
			h.touch(id.Page)
			lastTouched = id.Page
		}
		ids = append(ids, id)
		heads = append(heads, v)
	}
	return ids, heads
}

// Heads resolves the chain heads at ids in one pass, appending to dst (nil
// for out-of-range or vacuumed slots). The heap lock is acquired once and
// the buffer pool touched once per distinct consecutive page, so the batch
// DML write path pays page-granular instead of row-granular lookup cost.
// ids are expected to be page-clustered, as a batch scan produces them.
func (h *Heap) Heads(ids []RowID, dst []*Version) []*Version {
	h.mu.RLock()
	defer h.mu.RUnlock()
	lastPage := uint32(math.MaxUint32)
	for _, id := range ids {
		if id.Page != lastPage {
			if int(id.Page) < len(h.pages) {
				h.touch(id.Page)
			}
			lastPage = id.Page
		}
		var v *Version
		if int(id.Page) < len(h.pages) {
			p := h.pages[id.Page]
			if int(id.Slot) < len(p.chains) {
				v = p.chains[id.Slot]
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// SetHead replaces the chain head at id (prepending a new version whose Next
// must already link to the old head). Caller coordinates concurrency.
func (h *Heap) SetHead(id RowID, v *Version) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages[id.Page].chains[id.Slot] = v
	h.touch(id.Page)
}

// PageHeads copies one page's chain heads into buf (entries may be nil for
// vacuumed slots; the index is the slot) and returns the head count, or
// ok=false past the last page (a page recovery left empty is ok with no
// heads). It is the one place chain heads leave the heap: one RLock
// acquisition and one buffer-pool touch per page, and because the heads are
// copied out under the lock, concurrent Vacuum/SetHead slot writes cannot
// race with the caller. buf belongs to the caller, so concurrent readers
// (morsel workers) share nothing.
func (h *Heap) PageHeads(pageID uint32, buf []*Version) (n int, ok bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	if int(pageID) >= len(h.pages) {
		return 0, false
	}
	h.touch(pageID)
	return copy(buf, h.pages[pageID].chains), true
}

// ScanBatch visits the heap page-at-a-time in page order: the visitor
// receives a page id and that page's chain heads, as PageHeads yields them.
// Pages appended while the scan runs are visited too. Returning false stops
// the scan. The heads slice is only valid during the visit.
func (h *Heap) ScanBatch(visit func(pageID uint32, heads []*Version) bool) {
	var buf [RowsPerPage]*Version
	for pg := uint32(0); ; pg++ {
		n, ok := h.PageHeads(pg, buf[:])
		if !ok || !visit(pg, buf[:n]) {
			return
		}
	}
}

// Vacuum removes versions whose EndTS <= horizon and frees fully-dead chains.
// It returns the number of versions reclaimed. The horizon is the oldest
// snapshot timestamp still active.
//
//neurdb:reserved direction 5
func (h *Heap) Vacuum(horizon uint64) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	reclaimed := 0
	for _, p := range h.pages {
		for slot, head := range p.chains {
			if head == nil {
				continue
			}
			// Trim dead tail versions.
			for v := head; v != nil; v = v.Next() {
				for n := v.Next(); n != nil && n.EndTS() <= horizon; n = v.Next() {
					v.SetNext(n.Next())
					reclaimed++
				}
			}
			if head.EndTS() <= horizon && head.Next() == nil {
				p.chains[slot] = nil
				h.free = append(h.free, RowID{Page: p.id, Slot: uint32(slot)})
				reclaimed++
			}
		}
	}
	return reclaimed
}

func (h *Heap) touch(pageID uint32) {
	if h.pool != nil {
		h.pool.Touch(h.TableID, pageID)
	}
}

// MorselSource hands out disjoint page ranges ("morsels") of a heap to
// concurrent scan workers: each Next is one atomic fetch-add, so claiming is
// contention-free and every page in the snapshot is claimed exactly once.
// The page count is snapshotted at creation — pages appended afterwards hold
// only rows invisible to any snapshot taken before they were committed, which
// is the same horizon a serial scan observes.
type MorselSource struct {
	h     *Heap
	pages uint32 // page count snapshot
	size  uint32 // pages per morsel
	next  atomic.Uint32
}

// NewMorselSource snapshots the heap's page count and returns a dispatcher
// carving it into morsels of pagesPerMorsel pages (the final morsel may be
// short).
func (h *Heap) NewMorselSource(pagesPerMorsel int) *MorselSource {
	if pagesPerMorsel < 1 {
		pagesPerMorsel = 1
	}
	h.mu.RLock()
	pages := uint32(len(h.pages))
	h.mu.RUnlock()
	return &MorselSource{h: h, pages: pages, size: uint32(pagesPerMorsel)}
}

// Morsels returns the total number of morsels the source will hand out.
func (ms *MorselSource) Morsels() int {
	return int((ms.pages + ms.size - 1) / ms.size)
}

// Pages returns the snapshotted page count the source dispatches.
func (ms *MorselSource) Pages() int { return int(ms.pages) }

// Next claims the next morsel, returning its ordinal and page range
// [lo, hi), or ok=false once the heap snapshot is exhausted.
func (ms *MorselSource) Next() (idx int, lo, hi uint32, ok bool) {
	i := ms.next.Add(1) - 1
	lo = i * ms.size
	if lo >= ms.pages {
		return 0, 0, 0, false
	}
	hi = lo + ms.size
	if hi > ms.pages {
		hi = ms.pages
	}
	return int(i), lo, hi, true
}
