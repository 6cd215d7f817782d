package txn

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/wal"
)

func newHeap() *storage.Heap { return storage.NewHeap(1, nil) }

// The suites below work one row at a time; the manager is entered a head, a
// page or a batch at a time. These helpers are the whole adapter, and
// each lands on the code a statement runs: an index fetch's Heads + ReadHead,
// the page-run claim of UPDATE and DELETE, INSERT's batch.

// readRow reads the row visible to t at id.
func readRow(m *Manager, h *storage.Heap, id storage.RowID, t *Txn) (rel.Row, bool) {
	return m.ReadHead(h.Heads([]storage.RowID{id}, nil)[0], t)
}

// writeRow replaces the row visible to t at id with row, or deletes it when
// row is nil.
func writeRow(m *Manager, h *storage.Heap, id storage.RowID, row rel.Row, t *Txn) error {
	if row == nil {
		return m.DeleteBatch(h, []storage.RowID{id}, t)
	}
	return m.UpdateBatch(h, []storage.RowID{id}, []rel.Row{row}, t)
}

// insertRow adds one row as part of t.
func insertRow(m *Manager, h *storage.Heap, row rel.Row, t *Txn) (storage.RowID, error) {
	ids, err := m.InsertBatch(h, []rel.Row{row}, t)
	if err != nil {
		return storage.RowID{}, err
	}
	return ids[0], nil
}

// visibleRows counts the rows a fresh snapshot sees, page by page as a scan
// reads them.
func visibleRows(m *Manager, h *storage.Heap) int {
	tx := m.Begin(Snapshot, true)
	defer m.Commit(tx)
	var rows []rel.Row
	h.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
		rows = m.ReadPage(pageID, heads, tx, rows, nil)
		return true
	})
	return len(rows)
}

func TestInsertVisibleAfterCommit(t *testing.T) {
	m := NewManager()
	h := newHeap()

	t1 := m.Begin(Snapshot, false)
	id, err := insertRow(m, h, rel.Row{rel.Int(1)}, t1)
	if err != nil {
		t.Fatal(err)
	}
	// Own insert visible to self.
	if _, ok := readRow(m, h, id, t1); !ok {
		t.Fatal("own insert invisible")
	}
	// Invisible to a concurrent snapshot.
	t2 := m.Begin(Snapshot, true)
	if _, ok := readRow(m, h, id, t2); ok {
		t.Fatal("uncommitted insert visible to other txn")
	}
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	// Still invisible to t2 (snapshot taken before commit).
	if _, ok := readRow(m, h, id, t2); ok {
		t.Fatal("insert visible to pre-commit snapshot")
	}
	// Visible to a new txn.
	t3 := m.Begin(Snapshot, true)
	row, ok := readRow(m, h, id, t3)
	if !ok || row[0].AsInt() != 1 {
		t.Fatal("committed insert invisible to new txn")
	}
}

func TestUpdatePreservesOldSnapshot(t *testing.T) {
	m := NewManager()
	h := newHeap()

	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(10)}, setup)
	if err := m.Commit(setup); err != nil {
		t.Fatal(err)
	}

	reader := m.Begin(Snapshot, true) // snapshot before update
	writer := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, rel.Row{rel.Int(20)}, writer); err != nil {
		t.Fatal(err)
	}
	// Writer sees own new value.
	if row, ok := readRow(m, h, id, writer); !ok || row[0].AsInt() != 20 {
		t.Fatal("writer does not see own update")
	}
	// Reader still sees the old value, before and after the commit.
	if row, ok := readRow(m, h, id, reader); !ok || row[0].AsInt() != 10 {
		t.Fatal("reader snapshot broken before commit")
	}
	if err := m.Commit(writer); err != nil {
		t.Fatal(err)
	}
	if row, ok := readRow(m, h, id, reader); !ok || row[0].AsInt() != 10 {
		t.Fatal("reader snapshot broken after commit")
	}
	after := m.Begin(Snapshot, true)
	if row, ok := readRow(m, h, id, after); !ok || row[0].AsInt() != 20 {
		t.Fatal("new txn does not see update")
	}
}

func TestDeleteVisibility(t *testing.T) {
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(1)}, setup)
	m.Commit(setup)

	before := m.Begin(Snapshot, true)
	deleter := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, nil, deleter); err != nil {
		t.Fatal(err)
	}
	// Deleter no longer sees the row.
	if _, ok := readRow(m, h, id, deleter); ok {
		t.Fatal("deleter still sees deleted row")
	}
	m.Commit(deleter)
	// Pre-delete snapshot still sees it.
	if _, ok := readRow(m, h, id, before); !ok {
		t.Fatal("old snapshot lost deleted row")
	}
	// New txns don't.
	after := m.Begin(Snapshot, true)
	if _, ok := readRow(m, h, id, after); ok {
		t.Fatal("deleted row visible to new txn")
	}
	if n := visibleRows(m, h); n != 0 {
		t.Fatalf("live rows = %d", n)
	}
}

func TestWriteWriteConflict(t *testing.T) {
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(1)}, setup)
	m.Commit(setup)

	t1 := m.Begin(Snapshot, false)
	t2 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, rel.Row{rel.Int(2)}, t1); err != nil {
		t.Fatal(err)
	}
	// Concurrent writer must fail (first-updater-wins, no-wait).
	if err := writeRow(m, h, id, rel.Row{rel.Int(3)}, t2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("expected write conflict, got %v", err)
	}
	m.Commit(t1)
	// t2's snapshot predates t1's commit: still a conflict.
	if err := writeRow(m, h, id, rel.Row{rel.Int(3)}, t2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("expected post-commit conflict, got %v", err)
	}
	m.Abort(t2)
	// A fresh txn can update.
	t3 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, rel.Row{rel.Int(4)}, t3); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(t3); err != nil {
		t.Fatal(err)
	}
}

func TestAbortRollsBack(t *testing.T) {
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(1)}, setup)
	m.Commit(setup)

	t1 := m.Begin(Snapshot, false)
	writeRow(m, h, id, rel.Row{rel.Int(99)}, t1)
	insID, _ := insertRow(m, h, rel.Row{rel.Int(777)}, t1)
	m.Abort(t1)

	t2 := m.Begin(Snapshot, true)
	if row, ok := readRow(m, h, id, t2); !ok || row[0].AsInt() != 1 {
		t.Fatal("update not rolled back")
	}
	if _, ok := readRow(m, h, insID, t2); ok {
		t.Fatal("aborted insert visible")
	}
	// After abort, the row is writable again.
	t3 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, rel.Row{rel.Int(2)}, t3); err != nil {
		t.Fatal(err)
	}
	m.Commit(t3)
	// Abort of delete restores writability too.
	t4 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, nil, t4); err != nil {
		t.Fatal(err)
	}
	m.Abort(t4)
	t5 := m.Begin(Snapshot, false)
	if row, ok := readRow(m, h, id, t5); !ok || row[0].AsInt() != 2 {
		t.Fatal("aborted delete lost row")
	}
	if err := writeRow(m, h, id, nil, t5); err != nil {
		t.Fatal(err)
	}
	m.Commit(t5)
}

func TestDoubleUpdateSameTxn(t *testing.T) {
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(1)}, setup)
	m.Commit(setup)

	t1 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, id, rel.Row{rel.Int(2)}, t1); err != nil {
		t.Fatal(err)
	}
	if err := writeRow(m, h, id, rel.Row{rel.Int(3)}, t1); err != nil {
		t.Fatal(err)
	}
	if row, ok := readRow(m, h, id, t1); !ok || row[0].AsInt() != 3 {
		t.Fatal("second update not visible to self")
	}
	m.Commit(t1)
	t2 := m.Begin(Snapshot, true)
	if row, ok := readRow(m, h, id, t2); !ok || row[0].AsInt() != 3 {
		t.Fatal("final value wrong")
	}
}

func TestFinishedTxnErrors(t *testing.T) {
	m := NewManager()
	h := newHeap()
	t1 := m.Begin(Snapshot, false)
	m.Commit(t1)
	if _, err := insertRow(m, h, rel.Row{rel.Int(1)}, t1); !errors.Is(err, ErrTxnFinished) {
		t.Fatal("insert on finished txn should fail")
	}
	if err := m.Commit(t1); !errors.Is(err, ErrTxnFinished) {
		t.Fatal("double commit should fail")
	}
	m.Abort(t1) // no-op, must not panic
	if t1.Status() != StatusCommitted {
		t.Fatal("abort after commit changed status")
	}
}

func TestSnapshotLevelAllowsWriteSkew(t *testing.T) {
	// Snapshot isolation, the engine's one level, permits write skew: both
	// sides read A and B, write different rows, and both commit.
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	idA, _ := insertRow(m, h, rel.Row{rel.Int(50)}, setup)
	idB, _ := insertRow(m, h, rel.Row{rel.Int(50)}, setup)
	m.Commit(setup)

	t1 := m.Begin(Snapshot, false)
	t2 := m.Begin(Snapshot, false)
	readRow(m, h, idA, t1)
	readRow(m, h, idB, t1)
	readRow(m, h, idA, t2)
	readRow(m, h, idB, t2)
	writeRow(m, h, idA, rel.Row{rel.Int(-10)}, t1)
	writeRow(m, h, idB, rel.Row{rel.Int(-10)}, t2)
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(t2); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersConserveTotal(t *testing.T) {
	// Bank-transfer invariant under concurrent snapshot txns with retries:
	// the total balance is conserved.
	m := NewManager()
	h := newHeap()
	const accounts = 20
	const total = int64(accounts * 100)
	ids := make([]storage.RowID, accounts)
	setup := m.Begin(Snapshot, false)
	for i := range ids {
		ids[i], _ = insertRow(m, h, rel.Row{rel.Int(100)}, setup)
	}
	m.Commit(setup)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 100; i++ {
				from, to := r.Intn(accounts), r.Intn(accounts)
				if from == to {
					continue
				}
				amt := int64(r.Intn(10))
				tx := m.Begin(Snapshot, false)
				rf, ok1 := readRow(m, h, ids[from], tx)
				rt, ok2 := readRow(m, h, ids[to], tx)
				if !ok1 || !ok2 {
					m.Abort(tx)
					continue
				}
				if writeRow(m, h, ids[from], rel.Row{rel.Int(rf[0].AsInt() - amt)}, tx) != nil {
					m.Abort(tx)
					continue
				}
				if writeRow(m, h, ids[to], rel.Row{rel.Int(rt[0].AsInt() + amt)}, tx) != nil {
					m.Abort(tx)
					continue
				}
				m.Commit(tx)
			}
		}(int64(g))
	}
	wg.Wait()

	check := m.Begin(Snapshot, true)
	var sum int64
	for _, id := range ids {
		row, ok := readRow(m, h, id, check)
		if !ok {
			t.Fatal("account disappeared")
		}
		sum += row[0].AsInt()
	}
	if sum != total {
		t.Fatalf("total = %d, want %d", sum, total)
	}
	commits, aborts := m.Stats()
	if commits == 0 {
		t.Fatal("no commits recorded")
	}
	t.Logf("commits=%d aborts=%d", commits, aborts)
}

func TestVacuumIntegration(t *testing.T) {
	m := NewManager()
	h := newHeap()
	setup := m.Begin(Snapshot, false)
	id, _ := insertRow(m, h, rel.Row{rel.Int(1)}, setup)
	m.Commit(setup)
	for i := 0; i < 5; i++ {
		tx := m.Begin(Snapshot, false)
		if err := writeRow(m, h, id, rel.Row{rel.Int(int64(i))}, tx); err != nil {
			t.Fatal(err)
		}
		m.Commit(tx)
	}
	// Version chain should have 6 versions before vacuum.
	depth := 0
	for v := h.Heads([]storage.RowID{id}, nil)[0]; v != nil; v = v.Next() {
		depth++
	}
	if depth != 6 {
		t.Fatalf("chain depth = %d", depth)
	}
	reclaimed := h.Vacuum(m.OldestActiveTS())
	if reclaimed != 5 {
		t.Fatalf("vacuum reclaimed %d, want 5", reclaimed)
	}
	tx := m.Begin(Snapshot, true)
	if row, ok := readRow(m, h, id, tx); !ok || row[0].AsInt() != 4 {
		t.Fatal("live version lost by vacuum")
	}
}

func TestReadMissingRow(t *testing.T) {
	m := NewManager()
	h := newHeap()
	tx := m.Begin(Snapshot, true)
	if _, ok := readRow(m, h, storage.RowID{Page: 9, Slot: 9}, tx); ok {
		t.Fatal("missing row should not be readable")
	}
	if err := writeRow(m, h, storage.RowID{Page: 9, Slot: 9}, rel.Row{}, m.Begin(Snapshot, false)); err == nil {
		t.Fatal("updating missing row should error")
	}
}

// --- batch write/read path ---

// seedBatchHeap inserts n committed rows and returns their ids.
func seedBatchHeap(t *testing.T, m *Manager, h *storage.Heap, n int) []storage.RowID {
	t.Helper()
	setup := m.Begin(Snapshot, false)
	ids := make([]storage.RowID, n)
	for i := 0; i < n; i++ {
		id, err := insertRow(m, h, rel.Row{rel.Int(int64(i))}, setup)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	if err := m.Commit(setup); err != nil {
		t.Fatal(err)
	}
	return ids
}

func TestUpdateBatchCommitAndAbort(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 300) // spans multiple pages

	// Committed batch update is visible afterwards.
	tx := m.Begin(Snapshot, false)
	news := make([]rel.Row, len(ids))
	for i := range news {
		news[i] = rel.Row{rel.Int(int64(-i))}
	}
	if err := m.UpdateBatch(h, ids, news, tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	check := m.Begin(Snapshot, true)
	if row, ok := readRow(m, h, ids[299], check); !ok || row[0].AsInt() != -299 {
		t.Fatalf("batch update lost: %v", row)
	}

	// Aborted batch update rolls every claim back.
	tx2 := m.Begin(Snapshot, false)
	if err := m.UpdateBatch(h, ids, news, tx2); err != nil {
		t.Fatal(err)
	}
	m.Abort(tx2)
	tx3 := m.Begin(Snapshot, false)
	if err := m.UpdateBatch(h, ids[:10], news[:10], tx3); err != nil {
		t.Fatalf("claims not released after abort: %v", err)
	}
	m.Abort(tx3)
}

func TestUpdateBatchConflictRollsBackPartialClaims(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 10)
	news := make([]rel.Row, len(ids))
	for i := range news {
		news[i] = rel.Row{rel.Int(100)}
	}

	// t1 claims a row in the middle of the batch; t2's batch must fail,
	// and aborting t2 must release the rows it claimed before the
	// conflict.
	t1 := m.Begin(Snapshot, false)
	if err := writeRow(m, h, ids[5], rel.Row{rel.Int(7)}, t1); err != nil {
		t.Fatal(err)
	}
	t2 := m.Begin(Snapshot, false)
	if err := m.UpdateBatch(h, ids, news, t2); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("want write conflict, got %v", err)
	}
	m.Abort(t2)
	if err := m.Commit(t1); err != nil {
		t.Fatal(err)
	}
	// Rows 0..4 were claimed by t2 pre-conflict; the abort must have
	// cleared them for a fresh writer.
	t3 := m.Begin(Snapshot, false)
	if err := m.UpdateBatch(h, ids[:5], news[:5], t3); err != nil {
		t.Fatalf("pre-conflict claims not rolled back: %v", err)
	}
	if err := m.Commit(t3); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteBatch(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 200)
	tx := m.Begin(Snapshot, false)
	if err := m.DeleteBatch(h, ids[:150], tx); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if live := visibleRows(m, h); live != 50 {
		t.Fatalf("live rows after batch delete = %d, want 50", live)
	}
	check := m.Begin(Snapshot, true)
	if _, ok := readRow(m, h, ids[0], check); ok {
		t.Fatal("deleted row still visible")
	}
	if _, ok := readRow(m, h, ids[199], check); !ok {
		t.Fatal("surviving row lost")
	}
}

func TestReadPageAlignsIDsAndRows(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 200)

	// Delete a few rows so the page has invisible entries.
	del := m.Begin(Snapshot, false)
	if err := m.DeleteBatch(h, []storage.RowID{ids[0], ids[3], ids[150]}, del); err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(del); err != nil {
		t.Fatal(err)
	}

	tx := m.Begin(Snapshot, true)
	var gotIDs []storage.RowID
	var gotRows []rel.Row
	h.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
		gotRows = m.ReadPage(pageID, heads, tx, gotRows, &gotIDs)
		return true
	})
	if len(gotIDs) != 197 || len(gotRows) != 197 {
		t.Fatalf("got %d ids, %d rows, want 197", len(gotIDs), len(gotRows))
	}
	for i, id := range gotIDs {
		// Row payload must match what a point read at that id returns.
		row, ok := readRow(m, h, id, tx)
		if !ok || row[0].AsInt() != gotRows[i][0].AsInt() {
			t.Fatalf("id %v misaligned: point read %v, batch %v", id, row, gotRows[i])
		}
	}
}

// TestHeapHeadsResolvesChainsAndGaps: Heads yields each id's chain head in
// argument order and nil for an id outside the heap.
func TestHeapHeadsResolvesChainsAndGaps(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 300)
	probe := append(append([]storage.RowID{}, ids...),
		storage.RowID{Page: 99, Slot: 0}, storage.RowID{Page: 0, Slot: 999})
	heads := h.Heads(probe, nil)
	if len(heads) != len(probe) {
		t.Fatalf("got %d heads, want %d", len(heads), len(probe))
	}
	for i := range ids {
		if heads[i] == nil || heads[i].Data[0].AsInt() != int64(i) {
			t.Fatalf("heads[%d] is not row %d's chain: %v", i, i, heads[i])
		}
	}
	if heads[300] != nil || heads[301] != nil {
		t.Fatal("out-of-range ids must resolve to nil")
	}
}

// TestConcurrentPageReadsDuringWrites exercises the parallel-scan contract:
// many goroutines resolving page visibility through ReadPage (as morsel
// workers do) while writers concurrently insert, update, and commit. Each
// reader must observe a snapshot-consistent row count — exactly the rows
// committed before its transaction began — and the race detector must stay
// quiet across the version-stamp fast path.
func TestConcurrentPageReadsDuringWrites(t *testing.T) {
	m := NewManager()
	h := newHeap()

	const seedRows = 4 * storage.RowsPerPage
	seed := m.Begin(Snapshot, false)
	for i := 0; i < seedRows; i++ {
		if _, err := insertRow(m, h, rel.Row{rel.Int(int64(i)), rel.Int(0)}, seed); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Commit(seed); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writerErr error
	var writerMu sync.Mutex
	var writerWG sync.WaitGroup
	writerWG.Add(1)
	go func() { // writer: keeps committing inserts and updates
		defer writerWG.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			w := m.Begin(Snapshot, false)
			_, err := insertRow(m, h, rel.Row{rel.Int(int64(seedRows + i)), rel.Int(1)}, w)
			if err == nil {
				err = writeRow(m, h, storage.RowID{Page: 0, Slot: uint32(i % storage.RowsPerPage)}, rel.Row{rel.Int(int64(i % storage.RowsPerPage)), rel.Int(int64(i))}, w)
			}
			if err != nil && !errors.Is(err, ErrWriteConflict) {
				writerMu.Lock()
				writerErr = err
				writerMu.Unlock()
				return
			}
			if err != nil {
				m.Abort(w)
				continue
			}
			if err := m.Commit(w); err != nil {
				writerMu.Lock()
				writerErr = err
				writerMu.Unlock()
				return
			}
		}
	}()

	const readers = 4
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			buf := make([]*storage.Version, storage.RowsPerPage)
			for iter := 0; iter < 25; iter++ {
				tx := m.Begin(Snapshot, true)
				// Row count visible to tx is fixed at Begin: committed
				// inserts all happen-before via the manager clock.
				var rows []rel.Row
				pages := h.NumPages()
				for pg := 0; pg < pages; pg++ {
					n, _ := h.PageHeads(uint32(pg), buf)
					rows = m.ReadPage(uint32(pg), buf[:n], tx, rows, nil)
				}
				first := len(rows)
				// A second full pass under the same snapshot must agree.
				rows = rows[:0]
				for pg := 0; pg < pages; pg++ {
					n, _ := h.PageHeads(uint32(pg), buf)
					rows = m.ReadPage(uint32(pg), buf[:n], tx, rows, nil)
				}
				if len(rows) != first {
					t.Errorf("snapshot drifted: first pass %d rows, second %d", first, len(rows))
				}
				if first < seedRows {
					t.Errorf("reader saw %d rows, fewer than the %d seeded", first, seedRows)
				}
				m.Abort(tx)
			}
		}()
	}
	// Readers run to completion under live write traffic, then the writer
	// is stopped.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	writerMu.Lock()
	defer writerMu.Unlock()
	if writerErr != nil {
		t.Fatalf("writer failed: %v", writerErr)
	}
}

// TestReadOnlyTxnsRecordNothing pins that a transaction without writes
// leaves no trace, whether it commits or aborts: it leaves the active set,
// and it draws no commit timestamp, so the clock does not move.
func TestReadOnlyTxnsRecordNothing(t *testing.T) {
	m := NewManager()
	h := newHeap()
	w := m.Begin(Snapshot, false)
	id, err := insertRow(m, h, rel.Row{rel.Int(1)}, w)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Commit(w); err != nil {
		t.Fatal(err)
	}
	clock := m.clock.Load()
	for i := 0; i < 1000; i++ {
		for _, commit := range []bool{true, false} {
			r := m.Begin(Snapshot, true)
			if _, ok := readRow(m, h, id, r); !ok {
				t.Fatal("committed row not visible")
			}
			if !commit {
				m.Abort(r)
			} else if err := m.Commit(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(m.active) != 0 || m.clock.Load() != clock {
		t.Fatalf("2,000 read-only transactions left %d active and moved the clock %d -> %d",
			len(m.active), clock, m.clock.Load())
	}
	if c, a := m.Stats(); c != 1001 || a != 1000 {
		t.Fatalf("stats: %d commits, %d aborts; want 1001 and 1000", c, a)
	}
}

// heldLog is a CommitLog whose AppendCommit, once armed, signals entered and
// blocks until release is closed.
type heldLog struct {
	armed            bool
	entered, release chan struct{}
}

func (l *heldLog) Err() error { return nil }
func (l *heldLog) Sync(uint64) error {
	return nil
}

func (l *heldLog) AppendCommit(uint64, wal.Ops) (uint64, error) {
	if l.armed {
		close(l.entered)
		<-l.release
	}
	return 1, nil
}

// TestSnapshotDoesNotDriftAcrossAPublishingCommit: a snapshot that begins
// while a commit is inside AppendCommit must not see that commit, neither
// then nor after the commit has stamped its versions. A clock that moves
// before the stamps would hand the snapshot the commit's timestamp, and
// the row would change under it.
func TestSnapshotDoesNotDriftAcrossAPublishingCommit(t *testing.T) {
	m := NewManager()
	log := &heldLog{entered: make(chan struct{}), release: make(chan struct{})}
	m.SetCommitLog(log)
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 1)

	w := m.Begin(Snapshot, false)
	if err := writeRow(m, h, ids[0], rel.Row{rel.Int(2)}, w); err != nil {
		t.Fatal(err)
	}
	log.armed = true
	done := make(chan error)
	go func() { done <- m.Commit(w) }()
	<-log.entered

	r := m.Begin(Snapshot, true)
	before, ok := readRow(m, h, ids[0], r)
	if !ok {
		t.Fatal("row not visible")
	}
	close(log.release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	after, ok := readRow(m, h, ids[0], r)
	if !ok || after[0].AsInt() != before[0].AsInt() {
		t.Fatalf("snapshot drifted across a commit: read %v, then %v", before, after)
	}
	if before[0].AsInt() != 0 {
		t.Fatalf("snapshot begun during the commit read %v, want the old row 0", before)
	}
}
