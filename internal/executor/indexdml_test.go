package executor

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// seedIndexedTable fills name(id, k, v) with n rows (id = k = row number,
// v = row number % 7), B-tree indexes on id and k, and fresh statistics.
func seedIndexedTable(t *testing.T, db *testDB, name string, n int) *catalog.Table {
	t.Helper()
	tbl := db.mustCreate(name,
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "k", Typ: rel.TypeInt},
		rel.Column{Name: "v", Typ: rel.TypeInt},
	)
	tbl.AddIndex(&catalog.Index{Name: name + "_k", Col: 1, BT: index.NewBTree()}, nil)
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i)), rel.Int(int64(i % 7))}
	}
	ctx := db.ctx()
	if _, err := InsertBatch(ctx, tbl, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	tbl.Stats.NewBuilder(0).Add(rows).Finish()
	return tbl
}

func colCmp(col int, kind rel.BinOpKind, v int64) rel.Expr {
	return &rel.BinOp{Kind: kind, L: &rel.ColRef{Idx: col}, R: &rel.Const{Val: rel.Int(v)}}
}

func and(es ...rel.Expr) rel.Expr { return rel.CombineConjuncts(es) }

// dumpTable renders everything a later statement could observe of a table's
// physical state: every chain head's RowID with the row a fresh snapshot
// sees there, every index's postings in key order, and the statistics.
func dumpTable(db *testDB, tbl *catalog.Table) (heap, postings []string, st any) {
	ctx := db.ctx()
	defer db.mgr.Abort(ctx.Txn)
	eachHead(tbl, func(id storage.RowID, head *storage.Version) {
		row, ok := db.mgr.ReadHead(head, ctx.Txn)
		heap = append(heap, fmt.Sprintf("%v %v %v", id, ok, row))
	})
	for _, ix := range tbl.Indexes() {
		ix.BT.Range(nil, nil, func(k rel.Value, ids []storage.RowID) bool {
			postings = append(postings, fmt.Sprintf("%s %v %v", ix.Name, k, ids))
			return true
		})
	}
	snap := tbl.Stats.Snapshot()
	return heap, postings, []any{snap.RowCount, snap.Cols}
}

// TestIndexDrivenDMLMatchesSeqDML runs one UPDATE/DELETE sequence twice on
// identically seeded tables — rows found through whatever the optimizer
// picks (index scans, for these predicates) and through a forced heap scan —
// and requires the same affected counts and, after every statement,
// identical heaps, index postings and statistics.
func TestIndexDrivenDMLMatchesSeqDML(t *testing.T) {
	dbIx, dbSeq := newTestDB(t), newTestDB(t)
	const n = 3000
	tIx, tSeq := seedIndexedTable(t, dbIx, "t", n), seedIndexedTable(t, dbSeq, "t", n)

	setK := func(e rel.Expr) map[int]rel.Expr { return map[int]rel.Expr{1: e} }
	kPlus := func(d int64) rel.Expr {
		return &rel.BinOp{Kind: rel.OpAdd, L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(d)}}
	}
	steps := []struct {
		name  string
		set   map[int]rel.Expr // nil = DELETE
		where rel.Expr
	}{
		{"point update by id", map[int]rel.Expr{2: &rel.Const{Val: rel.Int(99)}}, colCmp(0, rel.OpEq, 1234)},
		{"key-moving point update", setK(&rel.Const{Val: rel.Int(7)}), colCmp(0, rel.OpEq, 5)},
		{"range update moving keys inside the range", setK(kPlus(10)), and(colCmp(1, rel.OpGe, 100), colCmp(1, rel.OpLt, 140))},
		{"range update over stale postings", setK(kPlus(-10)), and(colCmp(1, rel.OpGt, 95), colCmp(1, rel.OpLe, 150), colCmp(2, rel.OpNe, 3))},
		{"key moved away and back", setK(&rel.Const{Val: rel.Int(5)}), colCmp(0, rel.OpEq, 5)},
		{"range delete", nil, and(colCmp(1, rel.OpGe, 2000), colCmp(1, rel.OpLe, 2030))},
		{"point delete", nil, colCmp(0, rel.OpEq, 42)},
		{"update of deleted key", map[int]rel.Expr{2: &rel.Const{Val: rel.Int(1)}}, colCmp(0, rel.OpEq, 42)},
		{"probe past the last key", nil, colCmp(1, rel.OpGe, 10*n)},
	}
	for _, st := range steps {
		run := func(db *testDB, tbl *catalog.Table, o *optimizer.Optimizer, wantIndex bool) int {
			src := o.AccessPath(tbl, st.where)
			if _, isIndex := src.(*plan.IndexScan); isIndex != wantIndex {
				t.Fatalf("%s: access path %s", st.name, src.Label())
			}
			ctx := db.ctx()
			var cnt int
			var err error
			if st.set != nil {
				cnt, err = UpdateWhere(ctx, src, st.set)
			} else {
				cnt, err = DeleteWhere(ctx, src)
			}
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			if err := db.mgr.Commit(ctx.Txn); err != nil {
				t.Fatal(err)
			}
			return cnt
		}
		nIx := run(dbIx, tIx, optimizer.New(), true)
		nSeq := run(dbSeq, tSeq, &optimizer.Optimizer{Hints: optimizer.HintSet{NoIndexScan: true}}, false)
		if nIx != nSeq {
			t.Fatalf("%s: index path affected %d rows, heap scan %d", st.name, nIx, nSeq)
		}
		hIx, pIx, sIx := dumpTable(dbIx, tIx)
		hSeq, pSeq, sSeq := dumpTable(dbSeq, tSeq)
		if !reflect.DeepEqual(hIx, hSeq) {
			t.Fatalf("%s: heaps differ", st.name)
		}
		if !reflect.DeepEqual(pIx, pSeq) {
			t.Fatalf("%s: index postings differ", st.name)
		}
		if !reflect.DeepEqual(sIx, sSeq) {
			t.Fatalf("%s: statistics differ:\n%v\n%v", st.name, sIx, sSeq)
		}
	}
}

// TestIndexDrivenUpdateTouchesEachRowOnce is the Halloween check: an update
// that pushes keys further into the range it probes must not meet its own
// new postings, and rows with several postings in the range (earlier key
// changes) must be written once.
func TestIndexDrivenUpdateTouchesEachRowOnce(t *testing.T) {
	db := newTestDB(t)
	const n = 1000
	tbl := seedIndexedTable(t, db, "t", n)
	byK := tbl.IndexOn(1)
	bump := map[int]rel.Expr{1: &rel.BinOp{Kind: rel.OpAdd, L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(10)}}}
	lo := &rel.Const{Val: rel.Int(5)}
	for round := int64(1); round <= 2; round++ {
		ctx := db.ctx()
		cnt, err := UpdateWhere(ctx, &plan.IndexScan{Table: tbl, Index: byK, Lo: lo}, bump)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.mgr.Commit(ctx.Txn); err != nil {
			t.Fatal(err)
		}
		if cnt != n-5 {
			t.Fatalf("round %d: updated %d rows, want %d", round, cnt, n-5)
		}
		for _, row := range db.query("SELECT id, k FROM t") {
			id, k := row[0].AsInt(), row[1].AsInt()
			if want := id + 10*round; id >= 5 && k != want || id < 5 && k != id {
				t.Fatalf("round %d: row %d has k = %d", round, id, k)
			}
		}
	}
}

// TestIndexScanReturnsMovedRowsOnce drives the index scan over postings left
// behind by key-changing updates: a row that moved inside the
// probed range, one that left it, one that entered it, and one that moved
// away and came back (two postings under one key).
func TestIndexScanReturnsMovedRowsOnce(t *testing.T) {
	db := newTestDB(t)
	tbl := seedIndexedTable(t, db, "t", 2000)
	byK := tbl.IndexOn(1)
	move := func(id, k int64) {
		t.Helper()
		ctx := db.ctx()
		src := optimizer.New().AccessPath(tbl, colCmp(0, rel.OpEq, id))
		if cnt, err := UpdateWhere(ctx, src, map[int]rel.Expr{1: &rel.Const{Val: rel.Int(k)}}); err != nil || cnt != 1 {
			t.Fatalf("move %d: n=%d err=%v", id, cnt, err)
		}
		if err := db.mgr.Commit(ctx.Txn); err != nil {
			t.Fatal(err)
		}
	}
	move(5, 7)    // inside k <= 8, twice
	move(3, 500)  // out of the range
	move(900, 2)  // into the range
	move(6, 1000) // away ...
	move(6, 6)    // ... and back: postings (6, row 6) twice

	hi, eq := &rel.Const{Val: rel.Int(8)}, &rel.Const{Val: rel.Int(6)}
	for _, c := range []struct {
		node *plan.IndexScan
		want []int64 // ids, in heap order
	}{
		{&plan.IndexScan{Table: tbl, Index: byK, Hi: hi}, []int64{0, 1, 2, 4, 5, 6, 7, 8, 900}},
		{&plan.IndexScan{Table: tbl, Index: byK, Eq: eq}, []int64{6}},
	} {
		got := db.engineRows(c.node, 1)
		if d := diffRows(got, db.oracleRows(c.node)); d != "" {
			t.Errorf("%s: engine vs oracle: %s", c.node.Label(), d)
		}
		var ids []int64
		for _, row := range got {
			ids = append(ids, row[0].AsInt())
		}
		if !reflect.DeepEqual(ids, c.want) {
			t.Errorf("%s: ids %v, want %v", c.node.Label(), ids, c.want)
		}
	}
}

// TestIndexScanNullSemantics: a NULL probe bound matches nothing, and a row
// whose key is NULL is matched by no comparison, on either access path.
func TestIndexScanNullSemantics(t *testing.T) {
	db := newTestDB(t)
	tbl := seedIndexedTable(t, db, "t", 300)
	db.insert(tbl, rel.Row{rel.Int(1000), rel.Null(), rel.Int(0)})
	byK := tbl.IndexOn(1)
	null, hi := &rel.Const{Val: rel.Null()}, &rel.Const{Val: rel.Int(3)}
	count := func(n *plan.IndexScan) int {
		t.Helper()
		ctx := db.ctx()
		defer db.mgr.Abort(ctx.Txn)
		rows, err := runAll(n, ctx)
		if err != nil {
			t.Fatal(err)
		}
		return len(rows)
	}
	if got := count(&plan.IndexScan{Table: tbl, Index: byK, Hi: hi}); got != 4 {
		t.Errorf("k <= 3 returned %d rows, want 4 (the NULL key must not match)", got)
	}
	if got := count(&plan.IndexScan{Table: tbl, Index: byK, Lo: null}); got != 0 {
		t.Errorf("k >= NULL returned %d rows", got)
	}
	if got := count(&plan.IndexScan{Table: tbl, Index: byK, Eq: null}); got != 0 {
		t.Errorf("k = NULL returned %d rows", got)
	}
}

// TestIndexDrivenDMLWriteConflict: first-updater-wins holds when both
// writers reach the row through the index.
func TestIndexDrivenDMLWriteConflict(t *testing.T) {
	db := newTestDB(t)
	tbl := seedIndexedTable(t, db, "t", 500)
	src := optimizer.New().AccessPath(tbl, colCmp(0, rel.OpEq, 77))
	if _, ok := src.(*plan.IndexScan); !ok {
		t.Fatalf("access path %s", src.Label())
	}
	set := map[int]rel.Expr{2: &rel.Const{Val: rel.Int(-1)}}
	c1, c2 := db.ctx(), db.ctx()
	if cnt, err := UpdateWhere(c1, src, set); err != nil || cnt != 1 {
		t.Fatalf("first writer: n=%d err=%v", cnt, err)
	}
	if _, err := UpdateWhere(c2, src, set); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("second writer: expected write conflict, got %v", err)
	}
	if _, err := DeleteWhere(c2, src); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("second writer's delete: expected write conflict, got %v", err)
	}
	db.mgr.Abort(c2.Txn)
	if err := db.mgr.Commit(c1.Txn); err != nil {
		t.Fatal(err)
	}
	if rows := db.query("SELECT v FROM t WHERE id = 77"); len(rows) != 1 || rows[0][0].AsInt() != -1 {
		t.Fatalf("winner's update lost: %v", rows)
	}
}

// TestRandomIndexScansMatchSeqScans: random point and range probes, over a
// table that has seen random key-changing updates and deletes, return the
// same rows in the same (heap) order whichever access path runs them.
func TestRandomIndexScansMatchSeqScans(t *testing.T) {
	db := newTestDB(t)
	const n = 2500
	tbl := seedIndexedTable(t, db, "t", n)
	r := rand.New(rand.NewSource(12))
	for i := 0; i < 400; i++ {
		ctx := db.ctx()
		src := optimizer.New().AccessPath(tbl, colCmp(0, rel.OpEq, int64(r.Intn(n))))
		var err error
		if i%5 == 0 {
			_, err = DeleteWhere(ctx, src)
		} else {
			_, err = UpdateWhere(ctx, src, map[int]rel.Expr{1: &rel.Const{Val: rel.Int(int64(r.Intn(n / 4)))}})
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := db.mgr.Commit(ctx.Txn); err != nil {
			t.Fatal(err)
		}
	}
	ops := []rel.BinOpKind{rel.OpGt, rel.OpGe, rel.OpLt, rel.OpLe}
	for i := 0; i < 300; i++ {
		col := r.Intn(2)
		a, b := int64(r.Intn(n/4)), int64(r.Intn(40))
		var where rel.Expr
		switch r.Intn(3) {
		case 0:
			where = colCmp(col, rel.OpEq, a)
		case 1:
			where = and(colCmp(col, ops[r.Intn(2)], a), colCmp(col, ops[2+r.Intn(2)], a+b))
		default:
			where = and(colCmp(col, ops[r.Intn(2)], a), colCmp(col, ops[2+r.Intn(2)], a+b), colCmp(2, rel.OpNe, 3))
		}
		var got [2][]rel.Row
		for j, o := range []*optimizer.Optimizer{optimizer.New(), {Hints: optimizer.HintSet{NoIndexScan: true}}} {
			ctx := db.ctx()
			rows, err := runAll(o.AccessPath(tbl, where), ctx)
			db.mgr.Abort(ctx.Txn)
			if err != nil {
				t.Fatal(err)
			}
			got[j] = rows
		}
		if !sameRows(got[0], got[1]) {
			t.Fatalf("%v: index path returned %d rows %v, heap scan %d rows %v", where, len(got[0]), got[0], len(got[1]), got[1])
		}
	}
}
