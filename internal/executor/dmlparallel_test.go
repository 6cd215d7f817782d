package executor

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/txn"
)

// pctx returns a write context with the given worker cap.
func (db *testDB) pctx(workers int) *Ctx {
	return &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, false), Cat: db.cat, Workers: workers}
}

// TestParallelDMLMatchesSerialDML is the write-path differential: the same
// UPDATE/DELETE sequence at one worker and at four (morsel-parallel) over
// identically seeded multi-page tables must leave byte-identical state —
// affected counts, heap contents in heap order, live-row accounting,
// statistics, and index posting order — also after a refused statement.
func TestParallelDMLMatchesSerialDML(t *testing.T) {
	dbS := newTestDB(t)
	dbP := newTestDB(t)
	const n = 6000 // ~47 pages: beyond minParallelPages, many morsels
	ts := seedDMLTable(t, dbS, "t", n)
	tp := seedDMLTable(t, dbP, "t", n)
	for _, tbl := range []*catalog.Table{ts, tp} {
		tbl.AddIndex(&catalog.Index{Name: "t_grp", Col: 1, BT: index.NewBTree()}, nil)
		tbl.Schema.Cols[0].NotNull = true // so checkRow can refuse a step
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
	// id + id / (4999 - id) * 0 is id, except on row 4999 — the last live
	// row once ids from 5000 are deleted — where it divides by zero: NULL.
	id := &rel.ColRef{Idx: 0}
	nullAt4999 := map[int]rel.Expr{1: setGrp[1], 0: &rel.BinOp{Kind: rel.OpAdd, L: id,
		R: &rel.BinOp{Kind: rel.OpMul, R: &rel.Const{Val: rel.Int(0)}, L: &rel.BinOp{Kind: rel.OpDiv, L: id,
			R: &rel.BinOp{Kind: rel.OpSub, L: &rel.Const{Val: rel.Int(4999)}, R: id}}}}}

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
	sameState := func(step string) {
		t.Helper()
		ss, sp := dbS.ctx(), dbP.ctx()
		rowsS, rowsP := scanAll(ss, ts), scanAll(sp, tp)
		dbS.mgr.Abort(ss.Txn)
		dbP.mgr.Abort(sp.Txn)
		if len(rowsS) != len(rowsP) {
			t.Fatalf("%s: %d vs %d rows", step, len(rowsS), len(rowsP))
		}
		// Heap order, not canonicalized: the parallel path must reproduce
		// the serial heap layout exactly.
		for i := range rowsS {
			if rowsS[i].String() != rowsP[i].String() {
				t.Fatalf("%s: heap row %d differs: serial %s parallel %s",
					step, i, rowsS[i], rowsP[i])
			}
		}
		if ls, lp := liveChains(ts), liveChains(tp); ls != lp {
			t.Fatalf("%s: live rows %d vs %d", step, ls, lp)
		}
		if rs, rp := ts.Stats.Rows(), tp.Stats.Rows(); rs != rp {
			t.Fatalf("%s: stats rows %d vs %d", step, rs, rp)
		}
		if cs, cp := ts.Stats.Snapshot().Cols, tp.Stats.Snapshot().Cols; !reflect.DeepEqual(cs, cp) {
			t.Fatalf("%s: column statistics differ:\nserial   %v\nparallel %v", step, cs, cp)
		}
		// Index posting order must match: lazy maintenance appends postings
		// in heap order on the serial path, and the parallel merge replays
		// them in the same order.
		bs, bp := ts.Indexes()[0].BT, tp.Indexes()[0].BT
		if bs.Size() != bp.Size() {
			t.Fatalf("%s: index size %d vs %d", step, bs.Size(), bp.Size())
		}
		for g := int64(0); g <= 9; g++ {
			ps, pp := bs.Lookup(rel.Int(g)), bp.Lookup(rel.Int(g))
			if fmt.Sprint(ps) != fmt.Sprint(pp) {
				t.Fatalf("%s: postings for grp=%d differ:\nserial   %v\nparallel %v",
					step, g, ps, pp)
			}
		}
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
		sameState(st.name)
	}

	// A step checkRow refuses on its last page: both runs fail, and once
	// aborted they leave the same state, statistics and postings included.
	const refused = "refused update of indexed grp"
	for _, run := range []struct {
		db  *testDB
		tbl *catalog.Table
		ctx *Ctx
	}{{dbS, ts, dbS.pctx(1)}, {dbP, tp, dbP.pctx(4)}} {
		if _, err := UpdateWhere(run.ctx, seqSrc(run.tbl, nil), nullAt4999); err == nil ||
			!strings.Contains(err.Error(), "NOT NULL column t.id") {
			t.Fatalf("%s at %d workers: want the NOT NULL refusal, got %v", refused, run.ctx.Workers, err)
		}
		run.db.mgr.Abort(run.ctx.Txn)
	}
	sameState(refused)
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

// TestFailedDMLLeavesStatsAlone: a statement that fails partway — refused by
// the NOT NULL check on its last page, or stopped by a row another
// transaction holds — notes nothing. Statistics and index postings read the
// same after it as before, at every worker count and on both access paths.
func TestFailedDMLLeavesStatsAlone(t *testing.T) {
	const n = 6000 // 47 pages: four workers write it morsel-parallel
	for _, workers := range []int{1, 4} {
		for _, access := range []string{"SeqScan", "IndexScan"} {
			for _, stmt := range []string{"refused UPDATE", "conflicting DELETE"} {
				t.Run(fmt.Sprintf("workers=%d/%s/%s", workers, access, stmt), func(t *testing.T) {
					db := newTestDB(t)
					tbl := db.mustCreate("t",
						rel.Column{Name: "id", Typ: rel.TypeInt, NotNull: true},
						rel.Column{Name: "k", Typ: rel.TypeInt},
					)
					tbl.AddIndex(&catalog.Index{Name: "t_pkey", Col: 0, BT: index.NewBTree()}, nil)
					rows := make([]rel.Row, n)
					for i := range rows {
						rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i))}
					}
					rows[n-1][1] = rel.Null() // the last row's new id is NULL
					ctx := db.ctx()
					if _, err := InsertBatch(ctx, tbl, rows); err != nil {
						t.Fatal(err)
					}
					if err := db.mgr.Commit(ctx.Txn); err != nil {
						t.Fatal(err)
					}
					tbl.Stats.Rebuild(rows)

					src := seqSrc(tbl, nil)
					if access == "IndexScan" {
						src = &plan.IndexScan{Table: tbl, Index: tbl.IndexOn(0), Lo: &rel.Const{Val: rel.Int(0)}}
					}
					if stmt == "conflicting DELETE" {
						holder := db.ctx()
						defer db.mgr.Abort(holder.Txn)
						set := map[int]rel.Expr{1: &rel.Const{Val: rel.Int(-1)}}
						if _, err := UpdateWhere(holder, seqSrc(tbl, colCmp(0, rel.OpEq, n-10)), set); err != nil {
							t.Fatal(err)
						}
					}
					_, postings, stats := dumpTable(db, tbl)

					ctx = db.pctx(workers)
					if access == "SeqScan" && workers > 1 && heapWorkers(ctx, tbl) < 2 {
						t.Fatal("the heap scan would not run morsel-parallel")
					}
					var err error
					if stmt == "refused UPDATE" {
						// id + 100000 + k - k is NULL only where k is.
						id, k := &rel.ColRef{Idx: 0}, &rel.ColRef{Idx: 1}
						newID := &rel.BinOp{Kind: rel.OpSub, R: k, L: &rel.BinOp{Kind: rel.OpAdd, R: k,
							L: &rel.BinOp{Kind: rel.OpAdd, L: id, R: &rel.Const{Val: rel.Int(100000)}}}}
						_, err = UpdateWhere(ctx, src, map[int]rel.Expr{0: newID})
						if err == nil || !strings.Contains(err.Error(), "NOT NULL column t.id") {
							t.Fatalf("want the NOT NULL refusal, got %v", err)
						}
					} else if _, err = DeleteWhere(ctx, src); !errors.Is(err, txn.ErrWriteConflict) {
						t.Fatalf("want a write conflict, got %v", err)
					}
					db.mgr.Abort(ctx.Txn)

					_, postingsAfter, statsAfter := dumpTable(db, tbl)
					if !reflect.DeepEqual(stats, statsAfter) {
						t.Fatalf("statistics changed:\nbefore %v\nafter  %v", stats, statsAfter)
					}
					if !reflect.DeepEqual(postings, postingsAfter) {
						t.Fatalf("index postings changed: %d entries before, %d after", len(postings), len(postingsAfter))
					}
				})
			}
		}
	}
}
