package executor

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/txn"
)

// planFor compiles sql into a physical plan against the test catalog.
func planFor(t *testing.T, db *testDB, sql string) plan.Node {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
	if err != nil {
		t.Fatal(err)
	}
	p, err := optimizer.New().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runWorkers executes sql on the batch engine with the given parallelism.
func runWorkers(t *testing.T, db *testDB, sql string, workers int) []rel.Row {
	t.Helper()
	return db.engineRows(planFor(t, db, sql), workers)
}

// loadParallelFixture builds two committed tables spanning many heap pages
// (items well past minParallelPages) with NULL keys, NULL aggregate inputs,
// deleted rows, and updated rows, so parallel visibility, filters, grouping,
// ties, and join matches all cross morsel boundaries. All float values are
// small multiples of 0.5: their sums are exact in float64 regardless of
// addition order, so SUM/AVG compare byte-identically across any morsel
// split (see docs/ARCHITECTURE.md on parallel float aggregation).
func loadParallelFixture(t *testing.T, db *testDB) {
	items := db.mustCreate("items",
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "cat", Typ: rel.TypeInt},
		rel.Column{Name: "price", Typ: rel.TypeFloat},
	)
	cats := db.mustCreate("cats",
		rel.Column{Name: "cid", Typ: rel.TypeInt},
		rel.Column{Name: "label", Typ: rel.TypeText},
	)
	r := rand.New(rand.NewSource(11))
	ctx := db.ctx()
	rows := make([]rel.Row, 0, 12000)
	for i := 0; i < 12000; i++ {
		cat := rel.Int(int64(r.Intn(7))) // heavy ties for sort/group
		// Column types are not enforced on write, so the INT column cat also
		// holds numerically equal FLOATs (0 as -0), BOOLs and TEXT: grouping
		// and filtering on it take both group-key paths and the predicate
		// kernels' fallback.
		switch {
		case i%29 == 0:
			cat = rel.Null()
		case i%31 == 0:
			f := float64(cat.AsInt())
			if f == 0 {
				f = math.Copysign(0, -1)
			}
			cat = rel.Float(f)
		case i%43 == 0:
			cat = rel.Bool(cat.AsInt() == 1)
		case i%47 == 0:
			cat = rel.Text(fmt.Sprint(cat.AsInt()))
		}
		price := rel.Float(float64(r.Intn(400)) * 0.5) // exact sums
		if i%37 == 0 {
			price = rel.Null()
		}
		rows = append(rows, rel.Row{rel.Int(int64(i)), cat, price})
	}
	if _, err := InsertBatch(ctx, items, rows); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 7; c++ {
		if _, err := insertRow(ctx, cats, rel.Row{rel.Int(int64(c)), rel.Text(fmt.Sprintf("c%d", c))}); err != nil {
			t.Fatal(err)
		}
	}
	// Duplicate and NULL build keys: a probe row can match several cats rows
	// (in build order), or none.
	for _, row := range []rel.Row{
		{rel.Int(3), rel.Text("c3b")}, {rel.Null(), rel.Text("cnull")}, {rel.Int(5), rel.Text("a5")},
	} {
		if _, err := insertRow(ctx, cats, row); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	// Version chains and vacated slots must not confuse morsel scans.
	mctx := db.ctx()
	del := &rel.BinOp{Kind: rel.OpLt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(700)}}
	if _, err := DeleteWhere(mctx, seqSrc(items, del)); err != nil {
		t.Fatal(err)
	}
	set := map[int]rel.Expr{2: &rel.Const{Val: rel.Float(2.5)}}
	upd := &rel.BinOp{Kind: rel.OpGt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(11000)}}
	if _, err := UpdateWhere(mctx, seqSrc(items, upd), set); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(mctx.Txn); err != nil {
		t.Fatal(err)
	}
}

// fusedJoinAggQueries are aggregates over a hash join whose probe side
// (items) is large enough to run morsel-parallel: at any worker count they
// run as a parallelAgg that aggregates below the join. items.cat holds
// NULLs, cats holds duplicate and NULL keys.
var fusedJoinAggQueries = []string{
	// Grouped on a build-side text column: a group's first row must not be
	// the probe's reused scratch.
	"SELECT c.label, COUNT(*), SUM(i.price), MIN(i.id) FROM items i JOIN cats c ON i.cat = c.cid GROUP BY c.label",
	// A second equi-predicate is the join's residual.
	"SELECT c.label, COUNT(*), AVG(i.price) FROM items i JOIN cats c ON i.cat = c.cid AND i.price = c.cid GROUP BY c.label",
	// Grouped on the probe key: NULL keys join nothing, duplicate build keys twice.
	"SELECT i.cat, COUNT(*), COUNT(i.price) FROM items i JOIN cats c ON i.cat = c.cid WHERE i.id > 5000 GROUP BY i.cat",
	// MIN/MAX over text.
	"SELECT i.cat, MIN(c.label), MAX(c.label) FROM items i JOIN cats c ON i.cat = c.cid GROUP BY i.cat",
	// An empty build side, grouped and scalar.
	"SELECT c.label, COUNT(*) FROM items i JOIN cats c ON i.cat = c.cid WHERE c.label > 'zz' GROUP BY c.label",
	"SELECT COUNT(*), SUM(i.price) FROM items i JOIN cats c ON i.cat = c.cid WHERE c.label > 'zz'",
	// Scalar aggregates over the join.
	"SELECT COUNT(*), SUM(i.price), MIN(i.price), MAX(c.label) FROM items i JOIN cats c ON i.cat = c.cid",
	"SELECT COUNT(*) FROM items i JOIN cats c ON i.cat = c.cid WHERE i.price * 2 > 1000",
}

// TestParallelMatchesSerialExact is the parallel differential: every query
// shape must return the exact same row *sequence* with 4 workers as with 1 —
// not just the same multiset. The ordered morsel exchange, the first-seen
// merge order of parallel aggregation, the sequence tie break of the
// parallel sort, and the seq-sorted join buckets are what make this hold.
func TestParallelMatchesSerialExact(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)

	queries := []string{
		"SELECT * FROM items",
		"SELECT id, price FROM items WHERE cat = 3",
		"SELECT id, price * 2 FROM items WHERE price > 50",
		"SELECT cat, COUNT(*), SUM(price) FROM items GROUP BY cat",
		"SELECT cat, AVG(price), MIN(price), MAX(price) FROM items GROUP BY cat",
		"SELECT COUNT(*), SUM(price), AVG(price), MIN(price), MAX(price) FROM items",
		"SELECT COUNT(*) FROM items WHERE id < 0", // scalar agg over empty input
		"SELECT id, cat FROM items ORDER BY cat",  // heavy ties: stability check
		"SELECT id, cat FROM items ORDER BY cat DESC, price",
		"SELECT id FROM items ORDER BY price DESC LIMIT 37",
		"SELECT id FROM items LIMIT 10",
		"SELECT id FROM items LIMIT 0",
		"SELECT i.id, c.label FROM items i JOIN cats c ON i.cat = c.cid WHERE i.price > 90",
		"SELECT i.id, c.label FROM items i, cats c WHERE i.cat = c.cid AND c.label = 'c5'",
		"SELECT c.label, i.id FROM cats c JOIN items i ON c.cid = i.cat WHERE c.cid = 2",
		// A cross-table WHERE predicate is a Filter between the aggregate and
		// the join: the aggregate folds the pipeline's filtered joined rows.
		"SELECT c.label, COUNT(*), AVG(i.price) FROM items i JOIN cats c ON i.cat = c.cid WHERE i.price > c.cid * 20 GROUP BY c.label",
		// Filtered GROUP BY over the mixed-type cat column: numeric keys,
		// encoded keys (NULL, TEXT) and the partials' merge of both.
		"SELECT cat, COUNT(*), SUM(price), MIN(id) FROM items WHERE cat < 5 OR price > 150 GROUP BY cat",
		"SELECT cat, price, COUNT(*) FROM items WHERE 2 <= cat AND id > 900 GROUP BY cat, price",
	}
	queries = append(queries, fusedJoinAggQueries...)
	for _, sql := range queries {
		serial := runWorkers(t, db, sql, 1)
		par := runWorkers(t, db, sql, 4)
		if d := diffRows(serial, db.oracleRows(planFor(t, db, sql))); d != "" {
			t.Fatalf("%q: serial vs oracle: %s", sql, d)
		}
		if len(serial) != len(par) {
			t.Fatalf("%q: serial %d rows, parallel %d rows", sql, len(serial), len(par))
		}
		for i := range serial {
			if serial[i].String() != par[i].String() {
				t.Fatalf("%q: position %d differs: serial %v parallel %v", sql, i, serial[i], par[i])
			}
		}
	}
}

// TestGroupByNumericallyEqualKeys: GROUP BY puts numerically equal values —
// INT 1, DOUBLE 1.0 and TRUE; 0 and -0 — in one group, as = and the hash
// join do, on the single-key path and inside a multi-column key, serially
// and across the partials of a parallel aggregation.
func TestGroupByNumericallyEqualKeys(t *testing.T) {
	db := newTestDB(t)
	g := db.mustCreate("g",
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "x", Typ: rel.TypeFloat},
		rel.Column{Name: "k", Typ: rel.TypeInt},
	)
	db.insert(g, rel.Row{rel.Int(1), rel.Int(1), rel.Int(0)}, rel.Row{rel.Int(2), rel.Float(1), rel.Int(0)},
		rel.Row{rel.Int(3), rel.Float(2.5), rel.Int(0)})
	if d := diffRows(db.query("SELECT x, COUNT(*) FROM g GROUP BY x"),
		[]rel.Row{{rel.Int(1), rel.Int(2)}, {rel.Float(2.5), rel.Int(1)}}); d != "" {
		t.Fatalf("GROUP BY x over 1, 1.0, 2.5: %s", d)
	}
	if got := db.query("SELECT COUNT(*) FROM g a JOIN g b ON a.x = b.x"); got[0][0].AsInt() != 5 {
		t.Fatalf("the self-join on x matched %v pairs, want 5", got[0][0])
	}
	// The rule is =, which is exact: INTs above 2^53 that round to one
	// float64 (2^53 and 2^53+1) are distinct and two groups, and the DOUBLE
	// 2^53 equals only the INT 2^53.
	h := db.mustCreate("h", rel.Column{Name: "v", Typ: rel.TypeInt})
	db.insert(h, rel.Row{rel.Int(1 << 53)}, rel.Row{rel.Int(1<<53 + 1)}, rel.Row{rel.Float(1 << 53)})
	if got := db.query("SELECT COUNT(*) FROM h a JOIN h b ON a.v = b.v"); got[0][0].AsInt() != 5 {
		t.Fatalf("the self-join on v matched %v pairs, want 5", got[0][0])
	}
	if d := diffRows(db.query("SELECT v, COUNT(*) FROM h GROUP BY v"),
		[]rel.Row{{rel.Int(1 << 53), rel.Int(2)}, {rel.Int(1<<53 + 1), rel.Int(1)}}); d != "" {
		t.Fatalf("GROUP BY v over 2^53, 2^53+1, 2^53.0: %s", d)
	}

	// 6,000 more rows (47 pages with the three above, so Workers 4 runs
	// partials): ones and zeros of every numeric type, 600 rows each, with a
	// NULL and a TEXT '1' group that stay apart from them.
	xs := []rel.Value{rel.Int(1), rel.Float(0), rel.Float(1), rel.Int(0), rel.Bool(true),
		rel.Float(math.Copysign(0, -1)), rel.Bool(false), rel.Null(), rel.Text("1"), rel.Float(2.5)}
	var rows []rel.Row
	for i := 0; i < 6000; i++ {
		rows = append(rows, rel.Row{rel.Int(int64(i)), xs[i%len(xs)], rel.Int(int64(i / len(xs) % 2))})
	}
	tx := db.ctx()
	if _, err := InsertBatch(tx, g, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(tx.Txn); err != nil {
		t.Fatal(err)
	}
	// Groups in first-seen order, each shown by its first row's value.
	want := []rel.Row{{rel.Int(1), rel.Int(2 + 3*600)}, {rel.Float(2.5), rel.Int(1 + 600)},
		{rel.Float(0), rel.Int(4 * 600)}, {rel.Null(), rel.Int(600)}, {rel.Text("1"), rel.Int(600)}}
	for _, workers := range []int{1, 4} {
		if d := diffRows(runWorkers(t, db, "SELECT x, COUNT(*) FROM g GROUP BY x", workers), want); d != "" {
			t.Fatalf("workers=%d: GROUP BY x: %s", workers, d)
		}
		// Inside a two-column key every x group splits by k alone.
		if got := runWorkers(t, db, "SELECT x, k, COUNT(*) FROM g GROUP BY x, k", workers); len(got) != 2*len(want) {
			t.Fatalf("workers=%d: GROUP BY x, k made %d groups, want %d: %v", workers, len(got), 2*len(want), got)
		}
	}
}

// TestParallelOperatorSelection pins the planner/executor boundary: big
// pipelines go parallel, small tables and LIMIT-dominated pipelines stay
// serial.
func TestParallelOperatorSelection(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)
	small := db.mustCreate("small", rel.Column{Name: "x", Typ: rel.TypeInt})
	db.insert(small, rel.Row{rel.Int(1)}, rel.Row{rel.Int(2)})

	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: 4}
	defer db.mgr.Abort(ctx.Txn)
	build := func(sql string) BatchIter {
		it, err := BuildBatch(planFor(t, db, sql), ctx)
		if err != nil {
			t.Fatal(err)
		}
		return it
	}

	if _, ok := build("SELECT id FROM items WHERE price > 10").(*parallelScan); !ok {
		t.Fatal("big scan→filter→project pipeline did not go parallel")
	}
	if a, ok := build("SELECT cat, COUNT(*) FROM items GROUP BY cat").(*parallelAgg); !ok || a.workers == 1 {
		t.Fatal("big aggregation did not go parallel")
	}
	it := build("SELECT id FROM items ORDER BY price")
	proj, ok := it.(*pipeStream)
	if !ok || len(proj.stages) != 1 || proj.stages[0].exprs == nil {
		t.Fatalf("ORDER BY plan root is %T, want a projection's pipeStream", it)
	}
	if s, ok := proj.src.(*parallelSort); !ok || s.workers == 1 {
		t.Fatalf("big sort did not go parallel (source is %T)", proj.src)
	}
	if _, ok := build("SELECT x FROM small").(*parallelScan); ok {
		t.Fatal("two-row table went parallel; small tables must stay serial")
	}
	// An aggregate over a hash join folds (probe row, build row) pairs below
	// the join at any worker count: on the probe side's workers when it is
	// big and Workers allows, on one worker otherwise. A join of two small
	// tables stays on one worker.
	for _, sql := range fusedJoinAggQueries {
		if a, ok := build(sql).(*parallelAgg); !ok || !foldsPairs(a) || a.workers == 1 {
			t.Fatalf("%q did not build a parallelAgg below the join:\n%s", sql, plan.Explain(planFor(t, db, sql)))
		}
	}
	if a, ok := build("SELECT c.label, COUNT(*) FROM cats c JOIN small s ON c.cid = s.x GROUP BY c.label").(*parallelAgg); !ok || a.workers != 1 {
		t.Fatal("aggregate over a join of two small tables went parallel")
	}
	serial := &Ctx{Mgr: db.mgr, Txn: ctx.Txn, Cat: db.cat, Workers: 1}
	for _, sql := range fusedJoinAggQueries {
		if it, err := BuildBatch(planFor(t, db, sql), serial); err != nil {
			t.Fatal(err)
		} else if a, ok := it.(*parallelAgg); !ok || !foldsPairs(a) || a.workers != 1 {
			t.Fatalf("Workers 1: %q built %T, want a one-worker parallelAgg below the join", sql, it)
		}
	}
	// LIMIT directly over a streaming pipeline: the child must be the
	// serial scan so the limit can short-circuit.
	lim, ok := build("SELECT id FROM items LIMIT 5").(*limitBatch)
	if !ok {
		t.Fatal("LIMIT plan did not build a limitBatch root")
	}
	if _, ok := lim.child.(*parallelScan); ok {
		t.Fatal("LIMIT-dominated pipeline went parallel; short-circuit beats fan-out")
	}
	// ...but LIMIT over a blocking sort keeps the parallel child.
	lim, ok = build("SELECT id FROM items ORDER BY price LIMIT 5").(*limitBatch)
	if !ok {
		t.Fatal("ORDER BY LIMIT plan did not build a limitBatch root")
	}
	if proj, ok := lim.child.(*pipeStream); !ok {
		t.Fatalf("ORDER BY LIMIT child is %T, want pipeStream", lim.child)
	} else if s, ok := proj.src.(*parallelSort); !ok || s.workers == 1 {
		t.Fatalf("sort under LIMIT lost its parallelism (got %T)", proj.src)
	}
}

// foldsPairs reports whether a aggregates below a join: its pipeline ends
// in a probe stage.
func foldsPairs(a *parallelAgg) bool {
	n := len(a.stages)
	return n > 0 && a.stages[n-1].probe != nil
}

// TestParallelScanCancellation: closing a parallel iterator mid-stream must
// stop every worker (including ones parked on a full exchange slot) before
// Close returns, and leave the process with no lingering morsel goroutines.
func TestParallelScanCancellation(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)

	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: 4}
	it, err := BuildBatch(planFor(t, db, "SELECT * FROM items"), ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := it.(*parallelScan); !ok {
		t.Fatalf("expected a parallel scan, got %T", it)
	}
	if err := it.Open(); err != nil {
		t.Fatal(err)
	}
	batch := rel.NewBatch(BatchSize)
	if n, err := it.NextBatch(batch); err != nil || n == 0 {
		t.Fatalf("first batch: n=%d err=%v", n, err)
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	db.mgr.Abort(ctx.Txn)
	// Close joins the workers, so the counter must already be drained; the
	// poll guards against other tests' stragglers on slow machines.
	deadline := time.Now().Add(5 * time.Second)
	for ParallelWorkers() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := ParallelWorkers(); n != 0 {
		t.Fatalf("%d morsel workers still running after Close", n)
	}
}

// failingBuild is a hash-join build input that fails on its first batch,
// noting how many morsel workers were running at that moment.
type failingBuild struct{ workersAtFailure int64 }

func (f *failingBuild) Open() error { return nil }
func (f *failingBuild) NextBatch(*rel.Batch) (int, error) {
	f.workersAtFailure = ParallelWorkers()
	return 0, errors.New("build failed")
}
func (f *failingBuild) Close() error { return nil }

// TestFusedJoinAggBuildError: a build error of an aggregate below the join
// comes back from Open before any probe worker has started, and leaves no
// worker running.
func TestFusedJoinAggBuildError(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: 4}
	defer db.mgr.Abort(ctx.Txn)
	it, err := BuildBatch(planFor(t, db, fusedJoinAggQueries[0]), ctx)
	if err != nil {
		t.Fatal(err)
	}
	agg, ok := it.(*parallelAgg)
	if !ok || !foldsPairs(agg) || agg.workers == 1 {
		t.Fatalf("want a parallelAgg below the join, got %T", it)
	}
	probe := agg.stages[len(agg.stages)-1].probe
	if probe.build.workers != 1 {
		t.Fatalf("the build side runs on %d workers, want 1", probe.build.workers)
	}
	fail := &failingBuild{workersAtFailure: -1}
	probe.build = pipeline{ctx: ctx, workers: 1, src: fail}
	if err := it.Open(); err == nil || err.Error() != "build failed" {
		t.Fatalf("Open: got %v, want the build error", err)
	}
	if fail.workersAtFailure != 0 {
		t.Fatalf("%d morsel workers were running when the build failed", fail.workersAtFailure)
	}
	if n := ParallelWorkers(); n != 0 {
		t.Fatalf("%d morsel workers running after a failed Open", n)
	}
}

// TestScanBatchesParallelMatchesSerialScan: the streaming extraction path
// (AI featurization) must deliver exactly the rows and order of the
// materialized serial scan, serial and parallel alike.
func TestScanBatchesParallelMatchesSerialScan(t *testing.T) {
	db := newTestDB(t)
	loadParallelFixture(t, db)
	items, err := db.cat.Get("items")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: workers}
		want := scanAll(ctx, items)
		var got []rel.Row
		if err := ScanBatches(ctx, items, func(b *rel.Batch) error {
			got = append(got, b.Rows...)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		db.mgr.Abort(ctx.Txn)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: ScanBatches %d rows, serial scan %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() {
				t.Fatalf("workers=%d: row %d differs: %v vs %v", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBatchJoinsMatchOracle: the batch nested-loop and index joins must
// reproduce the oracle's nested loop exactly, including inner order.
func TestBatchJoinsMatchOracle(t *testing.T) {
	db := newTestDB(t)
	left := db.mustCreate("l",
		rel.Column{Name: "k", Typ: rel.TypeInt},
		rel.Column{Name: "v", Typ: rel.TypeInt},
	)
	right := db.mustCreate("r",
		rel.Column{Name: "k", Typ: rel.TypeInt},
		rel.Column{Name: "w", Typ: rel.TypeInt},
	)
	// An index on the inner join column makes the plan index-join eligible
	// (the insert helper posts each row as it loads it).
	right.AddIndex(&catalog.Index{Name: "r_k", Col: 0, BT: index.NewBTree()}, nil)
	rng := rand.New(rand.NewSource(3))
	var lrows, rrows []rel.Row
	for i := 0; i < 900; i++ {
		k := rel.Int(int64(rng.Intn(300)))
		if i%41 == 0 {
			k = rel.Null()
		}
		lrows = append(lrows, rel.Row{k, rel.Int(int64(i))})
	}
	for i := 0; i < 300; i++ {
		rrows = append(rrows, rel.Row{rel.Int(int64(i)), rel.Int(int64(i * 10))})
	}
	db.insert(left, lrows...)
	db.insert(right, rrows...)
	// Statistics make the index join costable (distinct counts drive the
	// per-probe match estimate).
	left.Stats.NewBuilder(0).Add(lrows).Finish()
	right.Stats.NewBuilder(0).Add(rrows).Finish()

	cases := []struct {
		sql   string
		hints optimizer.HintSet
		shape string // plan operator the hint set must force
	}{
		// Equi-join against the unique (indexed) column, hash and NL
		// disabled: index join.
		{"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
			optimizer.HintSet{NoHashJoin: true, NoNLJoin: true}, "IndexJoin"},
		// Same equi-join with hash and index joins disabled: nested loop.
		{"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k",
			optimizer.HintSet{NoHashJoin: true, NoIndexJoin: true}, "NLJoin"},
		// Non-equi condition: cross nested loop with a residual filter.
		{"SELECT l.v, r.w FROM l, r WHERE l.v < 5 AND r.w < 30 AND l.v < r.w",
			optimizer.HintSet{}, "NLJoin"},
	}
	for _, tc := range cases {
		stmt, err := sqlparse.Parse(tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
		if err != nil {
			t.Fatal(err)
		}
		o := optimizer.New()
		o.Hints = tc.hints
		p, err := o.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		shaped := false
		plan.Walk(p, func(n plan.Node, _ int) {
			switch n.(type) {
			case *plan.IndexJoin:
				shaped = shaped || tc.shape == "IndexJoin"
			case *plan.NLJoin:
				shaped = shaped || tc.shape == "NLJoin"
			}
		})
		if !shaped {
			t.Fatalf("%q (%+v): plan does not contain %s:\n%s", tc.sql, tc.hints, tc.shape, plan.Explain(p))
		}

		if d := diffRows(db.engineRows(p, 1), db.oracleRows(p)); d != "" {
			t.Fatalf("%q [%s]: engine vs oracle: %s", tc.sql, tc.shape, d)
		}
	}
}
