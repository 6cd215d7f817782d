package storage

import "neurdb/internal/rel"

// InstallAt places a committed row image at an explicit slot during WAL
// replay, growing pages as needed: redo records carry the physical RowID the
// original execution assigned, so re-applying one always lands on the same
// slot ("install row at slot" — idempotent by construction). The installed
// version is a single-element chain with XMin 0 (no live transaction ever
// has id 0) and BeginTS cts, which the visibility fast path treats as
// committed-at-cts. Recovery is single-threaded, but the heap lock is taken
// anyway so the method is safe if that ever changes.
func (h *Heap) InstallAt(id RowID, row rel.Row, cts uint64) {
	v := NewVersion(row, 0, nil)
	v.SetBeginTS(cts)
	h.mu.Lock()
	defer h.mu.Unlock()
	for int(id.Page) >= len(h.pages) {
		h.pages = append(h.pages, newPage(uint32(len(h.pages))))
	}
	p := h.pages[id.Page]
	for int(id.Slot) >= len(p.chains) {
		p.chains = append(p.chains, nil)
	}
	p.chains[id.Slot] = v
	h.touch(id.Page)
}

// ClearAt empties a slot during WAL replay ("clear slot" — the delete half
// of the physiological redo pair). Clearing an already-empty or
// out-of-range slot is a no-op, so re-applying a delete record is
// idempotent. The slot is not pushed onto the free list here: replay may
// later re-install it (a reused RowID from a later record), and the free
// list must never alias a live slot. RebuildFree reconciles after replay.
func (h *Heap) ClearAt(id RowID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if int(id.Page) >= len(h.pages) {
		return
	}
	p := h.pages[id.Page]
	if int(id.Slot) >= len(p.chains) {
		return
	}
	if p.chains[id.Slot] != nil {
		p.chains[id.Slot] = nil
		h.touch(id.Page)
	}
}

// RebuildFree rescans the heap and rebuilds the free list from empty slots.
// Called once after replay finishes: deletes replayed via ClearAt and
// inserts from aborted transactions (never logged, so their slots stay
// holes) both become reusable without risking a free-list entry that
// aliases a slot a later replay record re-installs.
func (h *Heap) RebuildFree() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.free = h.free[:0]
	for _, p := range h.pages {
		for slot, head := range p.chains {
			if head == nil {
				h.free = append(h.free, RowID{Page: p.id, Slot: uint32(slot)})
			}
		}
	}
}
