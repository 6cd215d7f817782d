package executor

import (
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/rel"
)

func seedInsertTable(db *testDB) *catalog.Table {
	tbl := db.mustCreate("ib",
		rel.Column{Name: "id", Typ: rel.TypeInt, NotNull: true},
		rel.Column{Name: "val", Typ: rel.TypeFloat},
	)
	tbl.AddIndex(&catalog.Index{Name: "ib_id", Col: 0, BT: index.NewBTree()}, nil)
	return tbl
}

func batchRows(n, base int) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(base + i)), rel.Float(float64(i) * 0.5)}
	}
	return rows
}

// TestInsertBatchMatchesOneRowBatches inserts the same rows as one batch and
// as one batch per row and compares visible contents, index postings,
// live chains, and statistics row counts.
func TestInsertBatchMatchesOneRowBatches(t *testing.T) {
	const n = 300 // spans multiple heap pages
	dbBatch, dbRow := newTestDB(t), newTestDB(t)
	tb, tr := seedInsertTable(dbBatch), seedInsertTable(dbRow)

	ctx := dbBatch.ctx()
	ids, err := InsertBatch(ctx, tb, batchRows(n, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != n {
		t.Fatalf("InsertBatch returned %d ids, want %d", len(ids), n)
	}
	if err := dbBatch.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	dbRow.insert(tr, batchRows(n, 0)...)

	got := dbBatch.query("SELECT id, val FROM ib")
	want := dbRow.query("SELECT id, val FROM ib")
	if len(got) != n || len(want) != n {
		t.Fatalf("visible rows: batch %d, row %d, want %d", len(got), len(want), n)
	}
	for i := range got {
		if got[i].String() != want[i].String() {
			t.Fatalf("row %d differs: batch %v, row-path %v", i, got[i], want[i])
		}
	}
	if lb, lr := liveChains(tb), liveChains(tr); lb != lr {
		t.Fatalf("live rows differ: batch %d, row-path %d", lb, lr)
	}
	if sb, sr := tb.Stats.Rows(), tr.Stats.Rows(); sb != sr {
		t.Fatalf("stats rows differ: batch %d, row-path %d", sb, sr)
	}
	// Every id must be probeable through the index.
	ix := tb.IndexOn(0)
	for i := 0; i < n; i++ {
		if len(ix.BT.Lookup(rel.Int(int64(i)))) != 1 {
			t.Fatalf("index posting missing for id %d", i)
		}
	}
}

// TestInsertBatchStatsSingleTick verifies the whole batch costs one
// statistics version bump (one lock, one Version tick), not one per row.
func TestInsertBatchStatsSingleTick(t *testing.T) {
	db := newTestDB(t)
	tbl := seedInsertTable(db)
	before := tbl.Stats.Version
	ctx := db.ctx()
	if _, err := InsertBatch(ctx, tbl, batchRows(64, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	if got := tbl.Stats.Version - before; got != 1 {
		t.Fatalf("stats version ticked %d times for one batch, want 1", got)
	}
}

// TestInsertBatchValidatesUpFront checks that a constraint violation
// anywhere in the batch inserts nothing.
func TestInsertBatchValidatesUpFront(t *testing.T) {
	db := newTestDB(t)
	tbl := seedInsertTable(db)
	rows := batchRows(10, 0)
	rows[7] = rel.Row{rel.Null(), rel.Float(1)} // violates NOT NULL id
	ctx := db.ctx()
	if _, err := InsertBatch(ctx, tbl, rows); err == nil {
		t.Fatal("expected NOT NULL violation")
	}
	db.mgr.Abort(ctx.Txn)
	if got := db.query("SELECT id FROM ib"); len(got) != 0 {
		t.Fatalf("failed batch left %d visible rows", len(got))
	}
	if live := liveChains(tbl); live != 0 {
		t.Fatalf("failed batch left live=%d", live)
	}
}

// TestInsertBatchAbortRollsBack aborts a committed-free batch and checks
// nothing stays visible.
func TestInsertBatchAbortRollsBack(t *testing.T) {
	db := newTestDB(t)
	tbl := seedInsertTable(db)
	ctx := db.ctx()
	if _, err := InsertBatch(ctx, tbl, batchRows(50, 0)); err != nil {
		t.Fatal(err)
	}
	db.mgr.Abort(ctx.Txn)
	if got := db.query("SELECT id FROM ib"); len(got) != 0 {
		t.Fatalf("aborted batch left %d visible rows", len(got))
	}
}
