package executor

import (
	"errors"
	"fmt"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/rel"
	"neurdb/internal/txn"
)

// pctx returns a write context with the given worker cap.
func (db *testDB) pctx(workers int) *Ctx {
	return &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, false), Cat: db.cat, Workers: workers}
}

// TestParallelDMLMatchesSerialDML is the write-path differential: the same
// UPDATE/DELETE sequence through the serial page loop (workers=1) and the
// morsel-parallel path (workers=4) over identically seeded multi-page
// tables must leave byte-identical state — affected counts, heap contents
// in heap order, live-row accounting, statistics, and index posting order.
func TestParallelDMLMatchesSerialDML(t *testing.T) {
	dbS := newTestDB(t)
	dbP := newTestDB(t)
	const n = 6000 // ~47 pages: beyond minParallelPages, many morsels
	ts := seedDMLTable(t, dbS, "t", n)
	tp := seedDMLTable(t, dbP, "t", n)
	for _, tbl := range []*catalog.Table{ts, tp} {
		tbl.AddIndex(&catalog.Index{Name: "t_grp", Col: 1, BT: index.NewBTree()}, nil)
	}

	grpEq := func(v int64) rel.Expr {
		return &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(v)}}
	}
	idGe := func(v int64) rel.Expr {
		return &rel.BinOp{Kind: rel.OpGe, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(v)}}
	}
	setGrp := map[int]rel.Expr{1: &rel.BinOp{Kind: rel.OpAdd,
		L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(1)}}}
	setVal := map[int]rel.Expr{2: &rel.BinOp{Kind: rel.OpMul,
		L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Float(2)}}}

	steps := []struct {
		name string
		run  func(ctx *Ctx, tbl *catalog.Table) (int, error)
	}{
		{"update val grp=3", func(ctx *Ctx, tbl *catalog.Table) (int, error) {
			return UpdateWhere(ctx, seqSrc(tbl, grpEq(3)), setVal)
		}},
		{"update indexed grp", func(ctx *Ctx, tbl *catalog.Table) (int, error) {
			return UpdateWhere(ctx, seqSrc(tbl, grpEq(5)), setGrp)
		}},
		{"delete id>=5000", func(ctx *Ctx, tbl *catalog.Table) (int, error) {
			return DeleteWhere(ctx, seqSrc(tbl, idGe(5000)))
		}},
		{"update all", func(ctx *Ctx, tbl *catalog.Table) (int, error) {
			return UpdateWhere(ctx, seqSrc(tbl, nil), setVal)
		}},
		{"delete none", func(ctx *Ctx, tbl *catalog.Table) (int, error) {
			return DeleteWhere(ctx, seqSrc(tbl, grpEq(99)))
		}},
	}
	for _, st := range steps {
		cs, cp := dbS.pctx(1), dbP.pctx(4)
		ns, err := st.run(cs, ts)
		if err != nil {
			t.Fatalf("%s (serial): %v", st.name, err)
		}
		np, err := st.run(cp, tp)
		if err != nil {
			t.Fatalf("%s (parallel): %v", st.name, err)
		}
		if ns != np {
			t.Fatalf("%s: serial affected %d, parallel %d", st.name, ns, np)
		}
		if cs.DMLParallelPages != 0 {
			t.Fatalf("%s: serial context reported parallel pages", st.name)
		}
		if cp.DMLParallelPages == 0 {
			t.Fatalf("%s: parallel context reported no parallel pages", st.name)
		}
		if err := dbS.mgr.Commit(cs.Txn); err != nil {
			t.Fatal(err)
		}
		if err := dbP.mgr.Commit(cp.Txn); err != nil {
			t.Fatal(err)
		}

		ss, sp := dbS.ctx(), dbP.ctx()
		rowsS, rowsP := scanAll(ss, ts), scanAll(sp, tp)
		dbS.mgr.Abort(ss.Txn)
		dbP.mgr.Abort(sp.Txn)
		if len(rowsS) != len(rowsP) {
			t.Fatalf("%s: %d vs %d rows", st.name, len(rowsS), len(rowsP))
		}
		// Heap order, not canonicalized: the parallel path must reproduce
		// the serial heap layout exactly.
		for i := range rowsS {
			if rowsS[i].String() != rowsP[i].String() {
				t.Fatalf("%s: heap row %d differs: serial %s parallel %s",
					st.name, i, rowsS[i], rowsP[i])
			}
		}
		if ls, lp := ts.Heap.LiveRows(), tp.Heap.LiveRows(); ls != lp {
			t.Fatalf("%s: live rows %d vs %d", st.name, ls, lp)
		}
		if rs, rp := ts.Stats.Rows(), tp.Stats.Rows(); rs != rp {
			t.Fatalf("%s: stats rows %d vs %d", st.name, rs, rp)
		}
		// Index posting order must match: lazy maintenance appends postings
		// in page order on the serial path, and the parallel merge replays
		// them in the same order.
		bs, bp := ts.Indexes()[0].BT, tp.Indexes()[0].BT
		if bs.Size() != bp.Size() {
			t.Fatalf("%s: index size %d vs %d", st.name, bs.Size(), bp.Size())
		}
		for g := int64(0); g <= 9; g++ {
			ps, pp := bs.Lookup(rel.Int(g)), bp.Lookup(rel.Int(g))
			if fmt.Sprint(ps) != fmt.Sprint(pp) {
				t.Fatalf("%s: postings for grp=%d differ:\nserial   %v\nparallel %v",
					st.name, g, ps, pp)
			}
		}
	}
}

// TestParallelDMLConflictAborts: a row claimed by another transaction must
// fail the whole parallel statement with a write conflict, and aborting
// must release every page's partial claims.
func TestParallelDMLConflictAborts(t *testing.T) {
	db := newTestDB(t)
	tbl := seedDMLTable(t, db, "t", 6000)
	set := map[int]rel.Expr{2: &rel.Const{Val: rel.Float(-1)}}

	c1 := db.pctx(1)
	one := &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(3000)}}
	if _, err := UpdateWhere(c1, seqSrc(tbl, one), set); err != nil {
		t.Fatal(err)
	}
	c2 := db.pctx(4)
	if _, err := UpdateWhere(c2, seqSrc(tbl, nil), set); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("expected write conflict, got %v", err)
	}
	db.mgr.Abort(c2.Txn)
	if err := db.mgr.Commit(c1.Txn); err != nil {
		t.Fatal(err)
	}
	// All claims released: a fresh parallel statement touches every row.
	c3 := db.pctx(4)
	n, err := UpdateWhere(c3, seqSrc(tbl, nil), set)
	if err != nil {
		t.Fatalf("claims not released after parallel abort: %v", err)
	}
	if n != 6000 {
		t.Fatalf("affected %d, want 6000", n)
	}
	if err := db.mgr.Commit(c3.Txn); err != nil {
		t.Fatal(err)
	}
}

// TestParallelDMLSmallTableStaysSerial: under minParallelPages the parallel
// gate must keep DML on the serial path.
func TestParallelDMLSmallTableStaysSerial(t *testing.T) {
	db := newTestDB(t)
	tbl := seedDMLTable(t, db, "t", 500) // ~4 pages, below the gate
	ctx := db.pctx(8)
	n, err := UpdateWhere(ctx, seqSrc(tbl, nil), map[int]rel.Expr{2: &rel.Const{Val: rel.Float(1)}})
	if err != nil || n != 500 {
		t.Fatalf("n=%d err=%v", n, err)
	}
	if ctx.DMLParallelPages != 0 {
		t.Fatalf("small table took the parallel path (%d pages)", ctx.DMLParallelPages)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
}
