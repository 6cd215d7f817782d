package executor

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/txn"
)

func canonical(rows []rel.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// TestBatchEngineMatchesOracle is the differential check for the executor:
// every query shape must return exactly the same multiset of rows from Run
// and from the reference interpreter. The table spans multiple heap pages
// and includes updated and deleted rows so visibility, filters, joins, and
// aggregation all cross batch boundaries.
func TestBatchEngineMatchesOracle(t *testing.T) {
	db := newTestDB(t)
	items := db.mustCreate("items",
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "cat", Typ: rel.TypeInt},
		rel.Column{Name: "price", Typ: rel.TypeFloat},
	)
	cats := db.mustCreate("cats",
		rel.Column{Name: "cid", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "label", Typ: rel.TypeText},
	)
	r := rand.New(rand.NewSource(42))
	ctx := db.ctx()
	for i := 0; i < 3000; i++ {
		cat := rel.Int(int64(r.Intn(10)))
		switch {
		case i%23 == 0:
			cat = rel.Null() // NULL group keys
		case i%19 == 0: // what an unchecked write can leave in an INT column
			cat = []rel.Value{rel.Float(float64(cat.AsInt())), rel.Bool(cat.AsInt()%2 == 1), rel.Text(fmt.Sprint(cat.AsInt()))}[i%3]
		}
		price := rel.Float(r.Float64() * 100)
		if i%31 == 0 {
			price = rel.Null() // NULL aggregate inputs
		}
		if _, err := insertRow(ctx, items, rel.Row{rel.Int(int64(i)), cat, price}); err != nil {
			t.Fatal(err)
		}
	}
	for c := 0; c < 10; c++ {
		if _, err := insertRow(ctx, cats, rel.Row{rel.Int(int64(c)), rel.Text(fmt.Sprintf("c%d", c))}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	// Mutate: version chains and dead slots must not confuse batch scans.
	mctx := db.ctx()
	where := &rel.BinOp{Kind: rel.OpLt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(200)}}
	if _, err := DeleteWhere(mctx, seqSrc(items, where)); err != nil {
		t.Fatal(err)
	}
	set := map[int]rel.Expr{2: &rel.Const{Val: rel.Float(1)}}
	whereUpd := &rel.BinOp{Kind: rel.OpGt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(2800)}}
	if _, err := UpdateWhere(mctx, seqSrc(items, whereUpd), set); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(mctx.Txn); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		"SELECT * FROM items",
		"SELECT id FROM items WHERE cat = 3",
		"SELECT id, price * 2 FROM items WHERE price > 50",
		"SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cid WHERE i.price > 90",
		"SELECT cat, COUNT(*), SUM(price) FROM items GROUP BY cat",
		"SELECT cat, AVG(price), MIN(price), MAX(price) FROM items GROUP BY cat",
		"SELECT id FROM items ORDER BY price DESC LIMIT 17",
		"SELECT COUNT(*) FROM items WHERE id < 1000",
		"SELECT COUNT(*), SUM(price), AVG(price), MIN(price), MAX(price) FROM items",
		"SELECT i.id, c.label FROM items i, cats c WHERE i.cat = c.cid AND c.label = 'c7'",
		// Filtered GROUP BY over cat's INT, FLOAT, BOOL, NULL and TEXT values.
		"SELECT cat, COUNT(*), SUM(price), MAX(id) FROM items WHERE cat >= 3 OR price < 20 GROUP BY cat",
		"SELECT cat, price > 50, COUNT(*) FROM items WHERE 6 > cat GROUP BY cat, price > 50",
		// Edge cases: empty input under agg/sort/limit, LIMIT 0, LIMIT
		// beyond the table, LIMIT on a batch boundary.
		"SELECT COUNT(*), SUM(price) FROM items WHERE id < 0",
		"SELECT cat, COUNT(*) FROM items WHERE id < 0 GROUP BY cat",
		"SELECT id FROM items WHERE id < 0 ORDER BY price",
		"SELECT id FROM items ORDER BY price LIMIT 0",
		"SELECT id FROM items LIMIT 0",
		"SELECT id FROM items LIMIT 100000",
		"SELECT id FROM items ORDER BY cat, price DESC LIMIT 512",
	}
	for _, sql := range queries {
		p := planFor(t, db, sql)
		bc, oc := canonical(db.engineRows(p, 1)), canonical(db.oracleRows(p))
		if len(bc) != len(oc) {
			t.Fatalf("%q: engine %d rows, oracle %d rows", sql, len(bc), len(oc))
		}
		for i := range bc {
			if bc[i] != oc[i] {
				t.Fatalf("%q: row %d differs: engine %q oracle %q", sql, i, bc[i], oc[i])
			}
		}
	}
}

// TestBatchSortOrderMatchesOracle pins the *sequence* the batch sort emits
// (the multiset check above sorts rows canonically, so it cannot see
// ordering bugs). Engine and oracle both sort stably over the same heap
// order, so ties must come out identically too.
func TestBatchSortOrderMatchesOracle(t *testing.T) {
	db := newTestDB(t)
	tbl := db.mustCreate("s",
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "k", Typ: rel.TypeInt},
	)
	r := rand.New(rand.NewSource(7))
	var rows []rel.Row
	for i := 0; i < 1000; i++ {
		k := rel.Int(int64(r.Intn(5))) // heavy ties
		if i%19 == 0 {
			k = rel.Null() // NULL sort keys (sort first)
		}
		rows = append(rows, rel.Row{rel.Int(int64(i)), k})
	}
	db.insert(tbl, rows...)
	for _, sql := range []string{
		"SELECT id, k FROM s ORDER BY k",
		"SELECT id, k FROM s ORDER BY k DESC",
		"SELECT id, k FROM s ORDER BY k, id DESC",
		"SELECT id, k FROM s ORDER BY k DESC LIMIT 300",
	} {
		p := planFor(t, db, sql)
		if d := diffRows(db.engineRows(p, 1), db.oracleRows(p)); d != "" {
			t.Fatalf("%q: engine vs oracle: %s", sql, d)
		}
	}
}

// streamRows runs sql at one worker, requiring its root to be the serial
// pipeline operator, and returns the rows it streams.
func streamRows(t *testing.T, db *testDB, sql string) []rel.Row {
	t.Helper()
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: 1}
	defer db.mgr.Abort(ctx.Txn)
	it, err := BuildBatch(planFor(t, db, sql), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*pipeStream); !ok {
		t.Fatalf("%q built %T, want pipeStream", sql, it)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var rows []rel.Row
	batch := rel.NewBatch(BatchSize)
	for {
		n, err := it.NextBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			return rows
		}
		rows = append(rows, batch.Rows...)
	}
}

// TestFilterBatchSkipsEmptyBatches: a highly selective filter must keep
// pulling source batches rather than signalling a spurious end-of-stream
// when one batch filters down to zero rows.
func TestFilterBatchSkipsEmptyBatches(t *testing.T) {
	db := newTestDB(t)
	tbl := db.mustCreate("t", rel.Column{Name: "x", Typ: rel.TypeInt})
	var rows []rel.Row
	for i := 0; i < 2000; i++ {
		rows = append(rows, rel.Row{rel.Int(int64(i))})
	}
	db.insert(tbl, rows...)
	// Exactly one row, deep in the table: every earlier batch is empty
	// after filtering.
	got := streamRows(t, db, "SELECT x FROM t WHERE x = 1999")
	if len(got) != 1 || got[0][0].AsInt() != 1999 {
		t.Fatalf("got %v", got)
	}
}

// TestHashJoinBatchOverflow: one probe batch can produce far more than
// BatchSize joined rows; the serial pipeline must carry them across
// NextBatch calls without loss or duplication.
func TestHashJoinBatchOverflow(t *testing.T) {
	db := newTestDB(t)
	l := db.mustCreate("l", rel.Column{Name: "k", Typ: rel.TypeInt})
	rr := db.mustCreate("r", rel.Column{Name: "k", Typ: rel.TypeInt})
	var lrows, rrows []rel.Row
	for i := 0; i < 40; i++ {
		lrows = append(lrows, rel.Row{rel.Int(1)})
	}
	for i := 0; i < 50; i++ {
		rrows = append(rrows, rel.Row{rel.Int(1)})
	}
	db.insert(l, lrows...)
	db.insert(rr, rrows...)
	rows := streamRows(t, db, "SELECT * FROM l, r WHERE l.k = r.k")
	if len(rows) != 40*50 {
		t.Fatalf("join produced %d rows, want %d", len(rows), 40*50)
	}
}

// TestRunCrossesBatchBoundaries: a row count that is not a multiple of
// BatchSize comes out of Run whole — the short last batch is neither lost
// nor repeated.
func TestRunCrossesBatchBoundaries(t *testing.T) {
	db := newTestDB(t)
	tbl := db.mustCreate("t", rel.Column{Name: "x", Typ: rel.TypeInt})
	var rows []rel.Row
	for i := 0; i < 700; i++ { // not a multiple of BatchSize
		rows = append(rows, rel.Row{rel.Int(int64(i))})
	}
	db.insert(tbl, rows...)
	got := db.query("SELECT x FROM t")
	if d := diffRows(got, rows); d != "" {
		t.Fatalf("SELECT x FROM t over 700 rows: %s", d)
	}
}
