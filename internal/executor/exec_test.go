package executor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// testDB is an engine harness: catalog + txn manager with helpers to run
// SQL end to end (parse → bind → optimize → execute).
type testDB struct {
	t   *testing.T
	cat *catalog.Catalog
	mgr *txn.Manager
}

func newTestDB(t *testing.T) *testDB {
	return &testDB{
		t:   t,
		cat: catalog.New(storage.NewBufferPool(1024)),
		mgr: txn.NewManager(),
	}
}

func (db *testDB) ctx() *Ctx {
	return &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, false), Cat: db.cat}
}

func (db *testDB) mustCreate(name string, cols ...rel.Column) *catalog.Table {
	db.t.Helper()
	t, err := db.cat.Create(name, rel.NewSchema(cols...))
	if err != nil {
		db.t.Fatal(err)
	}
	return t
}

// seqSrc is the heap-scan access node for DML over tbl (where may be nil).
func seqSrc(tbl *catalog.Table, where rel.Expr) plan.Node {
	return &plan.SeqScan{Table: tbl, Filter: where}
}

// insertRow inserts one row as a batch of its own — the row-at-a-time loader
// these suites were written against, on the path INSERT runs.
func insertRow(ctx *Ctx, t *catalog.Table, row rel.Row) (storage.RowID, error) {
	ids, err := InsertBatch(ctx, t, []rel.Row{row})
	if err != nil {
		return storage.RowID{}, err
	}
	return ids[0], nil
}

// scanAll returns every row visible to the context transaction, in heap
// order, through the serial scan whatever ctx.Workers says (what ANALYZE
// reads).
func scanAll(ctx *Ctx, t *catalog.Table) []rel.Row {
	rows, err := Run(&plan.SeqScan{Table: t}, ctx.serialized())
	if err != nil {
		panic(err)
	}
	return rows
}

// eachHead visits every chain head of t in heap order.
func eachHead(t *catalog.Table, visit func(storage.RowID, *storage.Version)) {
	t.Heap.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
		for slot, head := range heads {
			if head != nil {
				visit(storage.RowID{Page: pageID, Slot: uint32(slot)}, head)
			}
		}
		return true
	})
}

// liveChains counts the chains of t whose head no committed delete has
// ended and no abort has killed: what a quiescent heap holds as live rows.
func liveChains(t *catalog.Table) int {
	n := 0
	eachHead(t, func(_ storage.RowID, head *storage.Version) {
		if head.EndTS() == storage.InfinityTS {
			n++
		}
	})
	return n
}

func (db *testDB) insert(tbl *catalog.Table, rows ...rel.Row) {
	db.t.Helper()
	ctx := db.ctx()
	for _, r := range rows {
		if _, err := insertRow(ctx, tbl, r); err != nil {
			db.t.Fatal(err)
		}
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		db.t.Fatal(err)
	}
}

// query runs a SELECT through the full pipeline.
func (db *testDB) query(sql string) []rel.Row {
	db.t.Helper()
	rows, err := db.tryQuery(sql)
	if err != nil {
		db.t.Fatalf("query %q: %v", sql, err)
	}
	return rows
}

func (db *testDB) tryQuery(sql string) ([]rel.Row, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	if err != nil {
		return nil, err
	}
	p, err := optimizer.New().Plan(q)
	if err != nil {
		return nil, err
	}
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}
	return Run(p, ctx)
}

// oracleRows evaluates the plan on the reference interpreter (oracle_test.go)
// under a fresh read-only snapshot.
func (db *testDB) oracleRows(p plan.Node) []rel.Row {
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}
	defer db.mgr.Abort(ctx.Txn)
	return oracle(p, ctx)
}

// engineRows runs the plan on the executor under a fresh read-only snapshot.
func (db *testDB) engineRows(p plan.Node, workers int) []rel.Row {
	db.t.Helper()
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: workers}
	defer db.mgr.Abort(ctx.Txn)
	rows, err := Run(p, ctx)
	if err != nil {
		db.t.Fatalf("workers=%d: %v\n%s", workers, err, plan.Explain(p))
	}
	return rows
}

// diffRows reports the first difference between two row sequences ("" when
// they are the same sequence). Equality is typed: an INT 1 is not a TEXT '1'.
func diffRows(got, want []rel.Row) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("position %d: got %v, want %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("got %d rows, want %d", len(got), len(want))
	}
	return ""
}

func seedUsersPosts(db *testDB) (*catalog.Table, *catalog.Table) {
	users := db.mustCreate("users",
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "name", Typ: rel.TypeText},
		rel.Column{Name: "age", Typ: rel.TypeInt},
	)
	posts := db.mustCreate("posts",
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "owner", Typ: rel.TypeInt},
		rel.Column{Name: "score", Typ: rel.TypeInt},
	)
	db.insert(users,
		rel.Row{rel.Int(1), rel.Text("ann"), rel.Int(30)},
		rel.Row{rel.Int(2), rel.Text("bob"), rel.Int(25)},
		rel.Row{rel.Int(3), rel.Text("cat"), rel.Int(41)},
	)
	db.insert(posts,
		rel.Row{rel.Int(10), rel.Int(1), rel.Int(5)},
		rel.Row{rel.Int(11), rel.Int(1), rel.Int(8)},
		rel.Row{rel.Int(12), rel.Int(2), rel.Int(3)},
		rel.Row{rel.Int(13), rel.Int(3), rel.Int(9)},
		rel.Row{rel.Int(14), rel.Int(3), rel.Int(1)},
	)
	return users, posts
}

func TestSelectStarAndWhere(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT * FROM users WHERE age > 26")
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	rows = db.query("SELECT name FROM users WHERE age = 25")
	if len(rows) != 1 || rows[0][0].String() != "bob" {
		t.Fatalf("got %v", rows)
	}
}

func TestProjectionAndArithmetic(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT age * 2 + 1 FROM users WHERE id = 1")
	if len(rows) != 1 || rows[0][0].AsInt() != 61 {
		t.Fatalf("got %v", rows)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT name FROM users ORDER BY age DESC LIMIT 2")
	if len(rows) != 2 || rows[0][0].String() != "cat" || rows[1][0].String() != "ann" {
		t.Fatalf("got %v", rows)
	}
	rows = db.query("SELECT name FROM users ORDER BY age")
	if rows[0][0].String() != "bob" {
		t.Fatalf("asc order wrong: %v", rows)
	}
}

func TestJoinTwoTables(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT u.name, p.score FROM users u JOIN posts p ON u.id = p.owner WHERE p.score >= 5")
	if len(rows) != 3 {
		t.Fatalf("got %d rows: %v", len(rows), rows)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r[0].String()] = true
	}
	if !names["ann"] || !names["cat"] || names["bob"] {
		t.Fatalf("wrong names: %v", names)
	}
	// Comma-join syntax gives the same answer.
	rows2 := db.query("SELECT u.name, p.score FROM users u, posts p WHERE u.id = p.owner AND p.score >= 5")
	if len(rows2) != len(rows) {
		t.Fatalf("comma join mismatch: %d vs %d", len(rows2), len(rows))
	}
}

func TestThreeWayJoin(t *testing.T) {
	db := newTestDB(t)
	users, _ := seedUsersPosts(db)
	comments := db.mustCreate("comments",
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "post", Typ: rel.TypeInt},
		rel.Column{Name: "author", Typ: rel.TypeInt},
	)
	db.insert(comments,
		rel.Row{rel.Int(100), rel.Int(10), rel.Int(2)},
		rel.Row{rel.Int(101), rel.Int(11), rel.Int(3)},
		rel.Row{rel.Int(102), rel.Int(13), rel.Int(1)},
	)
	_ = users
	rows := db.query(`SELECT u.name FROM users u, posts p, comments c
		WHERE u.id = p.owner AND p.id = c.post AND c.author = 3`)
	if len(rows) != 1 || rows[0][0].String() != "ann" {
		t.Fatalf("got %v", rows)
	}
}

func TestAggregates(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT COUNT(*), SUM(score), AVG(score), MIN(score), MAX(score) FROM posts")
	if len(rows) != 1 {
		t.Fatalf("got %v", rows)
	}
	r := rows[0]
	if r[0].AsInt() != 5 || r[1].AsFloat() != 26 || r[2].AsFloat() != 5.2 || r[3].AsInt() != 1 || r[4].AsInt() != 9 {
		t.Fatalf("aggregates wrong: %v", r)
	}
}

func TestGroupBy(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT owner, COUNT(*), SUM(score) FROM posts GROUP BY owner")
	if len(rows) != 3 {
		t.Fatalf("got %d groups", len(rows))
	}
	sums := map[int64]float64{}
	for _, r := range rows {
		sums[r[0].AsInt()] = r[2].AsFloat()
	}
	if sums[1] != 13 || sums[2] != 3 || sums[3] != 10 {
		t.Fatalf("group sums wrong: %v", sums)
	}
}

func TestScalarAggOnEmptyInput(t *testing.T) {
	db := newTestDB(t)
	db.mustCreate("empty", rel.Column{Name: "x", Typ: rel.TypeInt})
	rows := db.query("SELECT COUNT(*), SUM(x) FROM empty")
	if len(rows) != 1 || rows[0][0].AsInt() != 0 || !rows[0][1].IsNull() {
		t.Fatalf("got %v", rows)
	}
}

func TestIndexScanPath(t *testing.T) {
	db := newTestDB(t)
	users, _ := seedUsersPosts(db)
	// users.id is a key column, so its B-tree came with the table; make the
	// table big enough that the optimizer prefers it.
	if users.IndexOn(0) == nil {
		t.Fatal("users.id has no key index")
	}
	r := rand.New(rand.NewSource(1))
	var bulk []rel.Row
	for i := 10; i < 2000; i++ {
		bulk = append(bulk, rel.Row{rel.Int(int64(i)), rel.Text("u"), rel.Int(int64(r.Intn(60)))})
	}
	ctx := db.ctx()
	for _, row := range bulk {
		id, err := insertRow(ctx, users, row)
		if err != nil {
			t.Fatal(err)
		}
		_ = id
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	// ANALYZE equivalent.
	sctx := db.ctx()
	users.Stats.Rebuild(scanAll(sctx, users))
	db.mgr.Abort(sctx.Txn)

	// Verify plan uses the index.
	stmt, _ := sqlparse.Parse("SELECT name FROM users WHERE id = 1500")
	q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(p), "IndexScan") {
		t.Fatalf("expected IndexScan, got:\n%s", plan.Explain(p))
	}
	rows := db.query("SELECT name FROM users WHERE id = 1500")
	if len(rows) != 1 {
		t.Fatalf("index path returned %d rows", len(rows))
	}
	// Range scan through the same index.
	rows = db.query("SELECT id FROM users WHERE id >= 1995 AND id < 1999")
	if len(rows) != 4 {
		t.Fatalf("range scan returned %d rows", len(rows))
	}
}

func TestHintSetsProduceDifferentPlans(t *testing.T) {
	db := newTestDB(t)
	users, posts := seedUsersPosts(db)
	// index on posts.owner enables index joins
	bt := index.NewBTree()
	posts.AddIndex(&catalog.Index{Name: "posts_owner", Col: 1, BT: bt}, func() {
		eachHead(posts, func(id storage.RowID, head *storage.Version) { bt.Insert(head.Data[1], id) })
	})
	ctx := db.ctx()
	users.Stats.Rebuild(scanAll(ctx, users))
	posts.Stats.Rebuild(scanAll(ctx, posts))
	db.mgr.Abort(ctx.Txn)

	stmt, _ := sqlparse.Parse("SELECT u.name FROM users u JOIN posts p ON u.id = p.owner")
	q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	if err != nil {
		t.Fatal(err)
	}
	cands, err := optimizer.EnumerateCandidates(q, nil, []float64{0.1, 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) < 2 {
		t.Fatalf("expected plan diversity, got %d candidates", len(cands))
	}
	// All candidates must produce identical results.
	var counts []int
	for _, c := range cands {
		rctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}
		rows, err := Run(c.Plan, rctx)
		if err != nil {
			t.Fatalf("candidate %s failed: %v", c.Hint, err)
		}
		counts = append(counts, len(rows))
	}
	for _, c := range counts {
		if c != counts[0] {
			t.Fatalf("candidate result counts differ: %v", counts)
		}
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := newTestDB(t)
	users, _ := seedUsersPosts(db)

	ctx := db.ctx()
	where := &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(1)}}
	n, err := UpdateWhere(ctx, seqSrc(users, where), map[int]rel.Expr{2: &rel.Const{Val: rel.Int(99)}})
	if err != nil || n != 1 {
		t.Fatalf("update n=%d err=%v", n, err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	rows := db.query("SELECT age FROM users WHERE id = 1")
	if len(rows) != 1 || rows[0][0].AsInt() != 99 {
		t.Fatalf("update not visible: %v", rows)
	}

	dctx := db.ctx()
	n, err = DeleteWhere(dctx, seqSrc(users, where))
	if err != nil || n != 1 {
		t.Fatalf("delete n=%d err=%v", n, err)
	}
	if err := db.mgr.Commit(dctx.Txn); err != nil {
		t.Fatal(err)
	}
	if rows := db.query("SELECT * FROM users"); len(rows) != 2 {
		t.Fatalf("after delete: %v", rows)
	}
}

func TestInsertValidation(t *testing.T) {
	db := newTestDB(t)
	tbl := db.mustCreate("t",
		rel.Column{Name: "a", Typ: rel.TypeInt, NotNull: true},
		rel.Column{Name: "b", Typ: rel.TypeText},
	)
	ctx := db.ctx()
	if _, err := insertRow(ctx, tbl, rel.Row{rel.Null(), rel.Text("x")}); err == nil {
		t.Fatal("null into NOT NULL should fail")
	}
	if _, err := insertRow(ctx, tbl, rel.Row{rel.Int(1)}); err == nil {
		t.Fatal("arity mismatch should fail")
	}
	db.mgr.Abort(ctx.Txn)
}

func TestBindErrors(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	bad := []string{
		"SELECT zzz FROM users",
		"SELECT id FROM users, posts",            // ambiguous
		"SELECT missing.id FROM users",           // unknown alias
		"SELECT u.nope FROM users u",             // unknown column
		"SELECT * FROM nosuch",                   // unknown table
		"SELECT * FROM users u, users u",         // duplicate alias
		"SELECT SUM(id, age) FROM users",         // arity
		"SELECT AVG(*) FROM users",               // star on non-count
		"SELECT COUNT(*) FROM users ORDER BY id", // agg + order by unsupported
	}
	for _, sql := range bad {
		if _, err := db.tryQuery(sql); err == nil {
			t.Errorf("query %q should fail", sql)
		}
	}
}

func TestSnapshotQueriesDontSeeLaterWrites(t *testing.T) {
	db := newTestDB(t)
	users, _ := seedUsersPosts(db)
	// Start a read txn, then modify in another txn.
	readCtx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}
	ctx := db.ctx()
	if _, err := insertRow(ctx, users, rel.Row{rel.Int(50), rel.Text("new"), rel.Int(1)}); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	stmt, _ := sqlparse.Parse("SELECT * FROM users")
	q, _ := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	p, _ := optimizer.New().Plan(q)
	rows, err := Run(p, readCtx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("snapshot saw %d rows, want 3", len(rows))
	}
}

func TestExplainOutput(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	stmt, _ := sqlparse.Parse("SELECT u.name FROM users u JOIN posts p ON u.id = p.owner WHERE p.score > 3")
	q, _ := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	p, err := optimizer.New().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	out := plan.Explain(p)
	if !strings.Contains(out, "Project") || !strings.Contains(out, "Join") {
		t.Fatalf("explain:\n%s", out)
	}
	nodes := 0
	plan.Walk(p, func(plan.Node, int) { nodes++ })
	if nodes < 4 {
		t.Fatalf("plan too small:\n%s", out)
	}
}

func TestInListAndBetweenExecution(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT id FROM posts WHERE score IN (3, 9)")
	if len(rows) != 2 {
		t.Fatalf("IN rows: %v", rows)
	}
	rows = db.query("SELECT id FROM posts WHERE score BETWEEN 3 AND 8")
	if len(rows) != 3 {
		t.Fatalf("BETWEEN rows: %v", rows)
	}
}

func TestCrossJoinFallback(t *testing.T) {
	db := newTestDB(t)
	seedUsersPosts(db)
	rows := db.query("SELECT u.id, p.id FROM users u, posts p")
	if len(rows) != 15 {
		t.Fatalf("cross join rows = %d, want 15", len(rows))
	}
}
