package txn

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// readPageScenario builds, from seed alone, a heap whose pages hold every
// kind of slot a scan can meet — and a reader to scan them with:
//
//   - plain committed rows, and rows with a committed older version below;
//   - slots vacuum emptied, some of them handed to later inserts;
//   - rows deleted before the reader began, and after (still visible to it);
//   - rows updated by a commit after the reader began (it skips the head);
//   - an open writer's update, delete and inserts; an aborted writer's;
//   - the reader's own update, delete and inserts.
//
// Two calls with the same seed build identical states, transaction ids
// included, so one read can be compared with another's.
func readPageScenario(t *testing.T, seed int64) (*Manager, *storage.Heap, *Txn) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	m := NewManager()
	h := newHeap()
	const n = 3*storage.RowsPerPage + 40
	ids := seedBatchHeap(t, m, h, n)

	// Disjoint groups of rows, one per fate, each in heap order.
	perm := r.Perm(n)
	group := func(k int) []storage.RowID {
		g := make([]storage.RowID, k)
		for i := range g {
			g[i] = ids[perm[i]]
		}
		perm = perm[k:]
		slices.SortFunc(g, func(a, b storage.RowID) int {
			return int(a.Page)*storage.RowsPerPage + int(a.Slot) - int(b.Page)*storage.RowsPerPage - int(b.Slot)
		})
		return g
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tag := int64(1000)
	fresh := func(k int) []rel.Row {
		rows := make([]rel.Row, k)
		for i := range rows {
			tag++
			rows[i] = rel.Row{rel.Int(tag)}
		}
		return rows
	}
	// write updates upd, deletes del and inserts ins rows as part of tx.
	write := func(tx *Txn, upd, del []storage.RowID, ins int) {
		must(m.UpdateBatch(h, upd, fresh(len(upd)), tx))
		must(m.DeleteBatch(h, del, tx))
		_, err := m.InsertBatch(h, fresh(ins), tx)
		must(err)
	}
	committed := func(upd, del []storage.RowID, ins int) {
		tx := m.Begin(Snapshot, false)
		write(tx, upd, del, ins)
		must(m.Commit(tx))
	}

	committed(nil, group(16), 0)
	if got := h.Vacuum(m.OldestActiveTS()); got != 16 {
		t.Fatalf("vacuum reclaimed %d versions, want the 16 deleted rows", got)
	}
	committed(group(12), group(12), 2) // chains, dead rows, two reused slots

	reader := m.Begin(Snapshot, false)

	committed(group(12), group(12), 3)
	open := m.Begin(Snapshot, false)
	write(open, group(8), group(8), 3)
	aborted := m.Begin(Snapshot, false)
	write(aborted, group(8), group(8), 3)
	m.Abort(aborted)
	write(reader, group(8), group(8), 3)
	return m, h, reader
}

// TestReadPageAgreesWithReadHead is the property the folded ReadPage stands
// on: for any page, asking for RowIDs or not changes nothing else, and both
// equal reading the page's heads one by one through ReadHead, in rows and
// in order.
func TestReadPageAgreesWithReadHead(t *testing.T) {
	type outcome struct {
		rows []rel.Row
		ids  []storage.RowID
	}
	// read scans the whole heap one of three ways.
	read := func(seed int64, how string) outcome {
		m, h, tx := readPageScenario(t, seed)
		var o outcome
		h.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
			switch how {
			case "page+ids":
				o.rows = m.ReadPage(pageID, heads, tx, o.rows, &o.ids)
			case "page":
				o.rows = m.ReadPage(pageID, heads, tx, o.rows, nil)
			case "heads":
				for slot, head := range heads {
					if row, ok := m.ReadHead(head, tx); ok {
						o.rows = append(o.rows, row)
						o.ids = append(o.ids, storage.RowID{Page: pageID, Slot: uint32(slot)})
					}
				}
			}
			return true
		})
		return o
	}
	for seed := int64(1); seed <= 5; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		withIDs := read(seed, "page+ids")
		without := read(seed, "page")
		perHead := read(seed, "heads")

		if len(perHead.rows) < 3*storage.RowsPerPage-40 || len(perHead.ids) != len(perHead.rows) {
			t.Fatalf("%s: reference read %d rows, %d ids", name, len(perHead.rows), len(perHead.ids))
		}
		if !reflect.DeepEqual(withIDs.ids, perHead.ids) {
			t.Fatalf("%s: ReadPage ids differ from ReadHead's", name)
		}
		without.ids = perHead.ids // not asked for; everything else must match
		for how, got := range map[string]outcome{"with ids": withIDs, "without ids": without} {
			if !reflect.DeepEqual(got.ids, perHead.ids) || !sameRows(got.rows, perHead.rows) {
				t.Fatalf("%s: ReadPage %s differs from per-row ReadHead: got %d rows, want %d",
					name, how, len(got.rows), len(perHead.rows))
			}
		}
	}
}

// sameRows reports whether two row lists hold the same rows: equal length,
// each row's encoding equal, a nil list or row only equal to a nil one. A
// rel.Value is incomparable (a TEXT's identity is the address of its bytes),
// so reflect.DeepEqual would tell two copies of one TEXT apart.
func sameRows(a, b []rel.Row) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if (a[i] == nil) != (b[i] == nil) || !bytes.Equal(rel.EncodeRow(nil, a[i]), rel.EncodeRow(nil, b[i])) {
			return false
		}
	}
	return true
}
