package executor

import (
	"testing"

	"neurdb/internal/plan"
	"neurdb/internal/txn"
)

// TestTopKMatchesSortLimit: a LIMIT over a sort, with or without a
// projection between them, keeps a bounded heap per worker, and must return
// exactly the stable sort's first N rows — the oracle's sort.SliceStable
// plus limit — serially and at two workers. items.cat has ~1,600 rows per
// value, so ties straddle every cut; the fixture's mixed-type cat column
// sorts numbers, TEXT and NULL against each other.
func TestTopKMatchesSortLimit(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)
	cases := []struct {
		sql string
		n   int64
	}{
		{"SELECT id, cat FROM items ORDER BY cat LIMIT 50", 50},
		{"SELECT id, cat FROM items ORDER BY cat DESC LIMIT 2500", 2500},
		{"SELECT id FROM items ORDER BY price DESC LIMIT 1", 1},
		{"SELECT id FROM items ORDER BY cat, price DESC LIMIT 777", 777},
		{"SELECT id, price FROM items WHERE cat = 3 ORDER BY price DESC LIMIT 100", 100},
		{"SELECT * FROM items ORDER BY price LIMIT 20000", 20000},    // N ≥ rows
		{"SELECT label, cid FROM cats ORDER BY cid DESC LIMIT 4", 4}, // serial: a small table
	}
	for _, tc := range cases {
		p := planFor(t, db, tc.sql)
		want := db.oracleRows(p)
		for _, workers := range []int{1, 2} {
			if got := topKLimit(t, db, p, workers); got != tc.n {
				t.Fatalf("%q, workers=%d: the sort under the limit keeps %d rows, want %d", tc.sql, workers, got, tc.n)
			}
			if d := diffRows(db.engineRows(p, workers), want); d != "" {
				t.Fatalf("%q, workers=%d: %s", tc.sql, workers, d)
			}
		}
	}
}

// topKLimit is the limit the sort below p's Limit root was built with.
func topKLimit(t *testing.T, db *testDB, p plan.Node, workers int) int64 {
	t.Helper()
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: workers}
	defer db.mgr.Abort(ctx.Txn)
	it, err := BuildBatch(p, ctx)
	if err != nil {
		t.Fatal(err)
	}
	lim, ok := it.(*limitBatch)
	if !ok {
		t.Fatalf("plan root built %T, want limitBatch", it)
	}
	sorted := lim.child
	if proj, ok := sorted.(*pipeStream); ok {
		sorted = proj.src
	}
	s, ok := sorted.(*parallelSort)
	if !ok {
		t.Fatalf("no sort under the limit: %T", sorted)
	}
	return s.limit
}
