package executor

import (
	"errors"
	"math/rand"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// --- one-claim-at-a-time DML, the reference implementation ---
//
// The shape of the pre-batching UpdateWhere/DeleteWhere, on the API that
// survives: one visibility check per chain head, then — per selected row — a
// one-id claim, its index postings and a one-row statistics note. The
// differential tests pin the page-run claims of the real path against it:
// page-run claims ≡ one claim at a time.

// selectRows is the reference scan: the rows visible to the context
// transaction that pass where, with their ids, in heap order.
func selectRows(ctx *Ctx, t *catalog.Table, where rel.Expr) (ids []storage.RowID, rows []rel.Row) {
	eachHead(t, func(id storage.RowID, head *storage.Version) {
		row, visible := ctx.Mgr.ReadHead(head, ctx.Txn)
		if visible && (where == nil || where.Eval(row).AsBool()) {
			ids, rows = append(ids, id), append(rows, row)
		}
	})
	return ids, rows
}

func updateWhereRowCursor(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr, where rel.Expr) (int, error) {
	ids, olds := selectRows(ctx, t, where)
	for i, old := range olds {
		newRow := old.Clone()
		for col, e := range set {
			newRow[col] = e.Eval(old)
		}
		if err := ctx.Mgr.UpdateBatch(t.Heap, ids[i:i+1], []rel.Row{newRow}, ctx.Txn); err != nil {
			return 0, err
		}
		for _, ix := range t.Indexes() {
			if !rel.Equal(old[ix.Col], newRow[ix.Col]) {
				ix.BT.Insert(newRow[ix.Col], ids[i])
			}
		}
		t.Stats.NoteUpdateBatch([]rel.Row{old}, []rel.Row{newRow})
	}
	return len(ids), nil
}

func deleteWhereRowCursor(ctx *Ctx, t *catalog.Table, where rel.Expr) (int, error) {
	ids, rows := selectRows(ctx, t, where)
	for i := range ids {
		if err := ctx.Mgr.DeleteBatch(t.Heap, ids[i:i+1], ctx.Txn); err != nil {
			return 0, err
		}
		t.Stats.NoteDeleteBatch(rows[i : i+1])
	}
	return len(ids), nil
}

// seedDMLTable fills a multi-page table (id, grp, val) with deterministic
// data including NULLs in both the predicate column and the value column.
func seedDMLTable(t *testing.T, db *testDB, name string, n int) *catalog.Table {
	tbl := db.mustCreate(name,
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "grp", Typ: rel.TypeInt},
		rel.Column{Name: "val", Typ: rel.TypeFloat},
	)
	r := rand.New(rand.NewSource(99))
	ctx := db.ctx()
	for i := 0; i < n; i++ {
		grp := rel.Int(int64(r.Intn(8)))
		if i%13 == 0 {
			grp = rel.Null()
		}
		val := rel.Float(r.Float64() * 100)
		if i%17 == 0 {
			val = rel.Null()
		}
		if _, err := insertRow(ctx, tbl, rel.Row{rel.Int(int64(i)), grp, val}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestBatchDMLMatchesRowCursorDML runs the same UPDATE/DELETE sequence
// through the page-batched DML and the one-claim-at-a-time reference on
// identically-seeded tables, then compares affected counts, final visible
// contents, live-row accounting, and statistics row counts.
func TestBatchDMLMatchesRowCursorDML(t *testing.T) {
	dbBatch := newTestDB(t)
	dbRow := newTestDB(t)
	const n = 1500 // spans many pages
	tb := seedDMLTable(t, dbBatch, "t", n)
	tr := seedDMLTable(t, dbRow, "t", n)

	grpEq := func(v int64) rel.Expr {
		return &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(v)}}
	}
	idLt := func(v int64) rel.Expr {
		return &rel.BinOp{Kind: rel.OpLt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(v)}}
	}
	bump := map[int]rel.Expr{2: &rel.BinOp{Kind: rel.OpAdd,
		L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Float(1000)}}}

	type step struct {
		name string
		run  func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error)
	}
	steps := []step{
		{"update grp=3", func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error) {
			if batch {
				return UpdateWhere(ctx, seqSrc(tbl, grpEq(3)), bump)
			}
			return updateWhereRowCursor(ctx, tbl, bump, grpEq(3))
		}},
		{"delete id<200", func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error) {
			if batch {
				return DeleteWhere(ctx, seqSrc(tbl, idLt(200)))
			}
			return deleteWhereRowCursor(ctx, tbl, idLt(200))
		}},
		{"update all (nil where)", func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error) {
			if batch {
				return UpdateWhere(ctx, seqSrc(tbl, nil), bump)
			}
			return updateWhereRowCursor(ctx, tbl, bump, nil)
		}},
		{"delete none (grp=99)", func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error) {
			if batch {
				return DeleteWhere(ctx, seqSrc(tbl, grpEq(99)))
			}
			return deleteWhereRowCursor(ctx, tbl, grpEq(99))
		}},
		{"delete all", func(ctx *Ctx, tbl *catalog.Table, batch bool) (int, error) {
			if batch {
				return DeleteWhere(ctx, seqSrc(tbl, nil))
			}
			return deleteWhereRowCursor(ctx, tbl, nil)
		}},
	}
	for _, st := range steps {
		cb, cr := dbBatch.ctx(), dbRow.ctx()
		nb, err := st.run(cb, tb, true)
		if err != nil {
			t.Fatalf("%s (batch): %v", st.name, err)
		}
		nr, err := st.run(cr, tr, false)
		if err != nil {
			t.Fatalf("%s (row): %v", st.name, err)
		}
		if nb != nr {
			t.Fatalf("%s: batch affected %d, row-cursor %d", st.name, nb, nr)
		}
		if err := dbBatch.mgr.Commit(cb.Txn); err != nil {
			t.Fatal(err)
		}
		if err := dbRow.mgr.Commit(cr.Txn); err != nil {
			t.Fatal(err)
		}
		sb, sr := dbBatch.ctx(), dbRow.ctx()
		gotB := canonical(scanAll(sb, tb))
		gotR := canonical(scanAll(sr, tr))
		dbBatch.mgr.Abort(sb.Txn)
		dbRow.mgr.Abort(sr.Txn)
		if len(gotB) != len(gotR) {
			t.Fatalf("%s: batch %d rows, row-cursor %d rows", st.name, len(gotB), len(gotR))
		}
		for i := range gotB {
			if gotB[i] != gotR[i] {
				t.Fatalf("%s: row %d differs: batch %q row-cursor %q", st.name, i, gotB[i], gotR[i])
			}
		}
		if lb, lr := liveChains(tb), liveChains(tr); lb != lr {
			t.Fatalf("%s: live rows %d vs %d", st.name, lb, lr)
		}
		if rb, rr := tb.Stats.Rows(), tr.Stats.Rows(); rb != rr {
			t.Fatalf("%s: stats rows %d vs %d", st.name, rb, rr)
		}
	}
}

// TestBatchDMLOnEmptyTable: DML over an empty heap must affect nothing and
// not error.
func TestBatchDMLOnEmptyTable(t *testing.T) {
	db := newTestDB(t)
	tbl := db.mustCreate("e", rel.Column{Name: "x", Typ: rel.TypeInt})
	ctx := db.ctx()
	if n, err := UpdateWhere(ctx, seqSrc(tbl, nil), map[int]rel.Expr{0: &rel.Const{Val: rel.Int(1)}}); err != nil || n != 0 {
		t.Fatalf("update empty: n=%d err=%v", n, err)
	}
	if n, err := DeleteWhere(ctx, seqSrc(tbl, nil)); err != nil || n != 0 {
		t.Fatalf("delete empty: n=%d err=%v", n, err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
}

// TestBatchDMLWriteConflict: first-updater-wins must survive the batched
// claim path — a second transaction touching the same rows conflicts, and
// aborting it rolls its claims back so the winner's view is unaffected.
func TestBatchDMLWriteConflict(t *testing.T) {
	db := newTestDB(t)
	tbl := seedDMLTable(t, db, "t", 300)
	set := map[int]rel.Expr{2: &rel.Const{Val: rel.Float(-1)}}

	c1 := db.ctx()
	c2 := db.ctx()
	if _, err := UpdateWhere(c1, seqSrc(tbl, nil), set); err != nil {
		t.Fatal(err)
	}
	if _, err := UpdateWhere(c2, seqSrc(tbl, nil), set); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("expected write conflict, got %v", err)
	}
	db.mgr.Abort(c2.Txn)
	if err := db.mgr.Commit(c1.Txn); err != nil {
		t.Fatal(err)
	}
	rows := db.query("SELECT COUNT(*) FROM t WHERE val < 0")
	if rows[0][0].AsInt() != 300 {
		t.Fatalf("winner's update lost: %v", rows)
	}
}
