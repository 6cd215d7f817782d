package executor

import (
	"math"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/txn"
)

// joinKeyValues are the key values the join-key differential mixes into an
// INT column (column types are not enforced on write): numerically equal
// values of every numeric type (1, 1.0, TRUE; 0, -0, FALSE), TEXT that looks
// like a number, the empty string, and NULL.
var joinKeyValues = []rel.Value{
	rel.Int(1), rel.Float(1), rel.Bool(true), rel.Int(0), rel.Float(math.Copysign(0, -1)),
	rel.Bool(false), rel.Text("1"), rel.Text("a"), rel.Text(""), rel.Null(), rel.Float(2.5), rel.Int(7),
}

// TestJoinKeysMatchOracle is the hash join's key-semantics differential: the
// probe stage, serially (workers 1) and in the exchange (workers 2), and the
// aggregate below the join must each return exactly the oracle's
// nested-loop result. Keys join when = holds (1 = 1.0 = TRUE, -0 = 0, TEXT
// by string), NULL joins nothing on either side, and a probe row meets its
// duplicate build keys in build order. The small build side is built
// serially, the big one by the parallel build.
func TestJoinKeysMatchOracle(t *testing.T) {
	db := newTestDB(t)
	mk := func(name string, rows []rel.Row) *catalog.Table {
		tbl := db.mustCreate(name, rel.Column{Name: "k", Typ: rel.TypeInt}, rel.Column{Name: "v", Typ: rel.TypeInt})
		ctx := db.ctx()
		if _, err := InsertBatch(ctx, tbl, rows); err != nil {
			t.Fatal(err)
		}
		if err := db.mgr.Commit(ctx.Txn); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	// 4,200 rows (33 pages) on the probe side and on the big build side, so
	// both run morsel-parallel at two workers. One row in five carries a
	// special key; the rest are INTs, most of which match once.
	wide := func(n, shift int) []rel.Row {
		rows := make([]rel.Row, n)
		for i := range rows {
			k := rel.Int(int64((i + shift) % 3000))
			if i%5 == 0 {
				k = joinKeyValues[(i/5+shift)%len(joinKeyValues)]
			}
			rows[i] = rel.Row{k, rel.Int(int64(i))}
		}
		return rows
	}
	probe := mk("jprobe", wide(4200, 0))
	var small []rel.Row
	for i, k := range append(joinKeyValues, joinKeyValues[:4]...) { // duplicates of 1, 1.0, TRUE and 0
		small = append(small, rel.Row{k, rel.Int(int64(100 + i))})
	}
	builds := []*catalog.Table{mk("jsmall", small), mk("jbig", wide(4200, 3))}

	for _, build := range builds {
		join := &plan.HashJoin{
			Base: plan.Base{Out: probe.Schema.Concat(build.Schema)},
			L:    &plan.SeqScan{Base: plan.Base{Out: probe.Schema}, Table: probe},
			R:    &plan.SeqScan{Base: plan.Base{Out: build.Schema}, Table: build},
			LKey: 0, RKey: 0,
		}
		agg := func(group int) *plan.Agg {
			g := &rel.ColRef{Idx: group}
			return &plan.Agg{Child: join, GroupBy: []rel.Expr{g}, Items: []plan.AggItem{
				{Key: g},
				{Agg: &plan.AggSpec{Kind: plan.AggCount}},
				{Agg: &plan.AggSpec{Kind: plan.AggSum, Arg: &rel.ColRef{Idx: 1}}},
				{Agg: &plan.AggSpec{Kind: plan.AggMin, Arg: &rel.ColRef{Idx: 3}}},
			}}
		}
		plans := []struct {
			name string
			node plan.Node
		}{
			{"join", join},
			{"group by build v", agg(3)}, // one group per build row
			{"group by probe k", agg(0)}, // numerically equal keys share a group
		}
		for _, p := range plans {
			want := db.oracleRows(p.node)
			if len(want) == 0 {
				t.Fatalf("%s ⋈ %s, %s: the oracle returned no rows", probe.Name, build.Name, p.name)
			}
			for _, workers := range []int{1, 2} {
				if workers > 1 {
					checkParallelJoinShape(t, db, p.node, build.Name == "jbig")
				}
				if d := diffRows(db.engineRows(p.node, workers), want); d != "" {
					t.Fatalf("%s ⋈ %s, %s, workers=%d: %s", probe.Name, build.Name, p.name, workers, d)
				}
			}
		}
	}
}

// checkParallelJoinShape asserts that n builds, at two workers, the parallel
// operator the differential means to cover: the exchange for a bare join,
// the aggregate below the join otherwise, with the build side parallel when
// parallelBuild is set.
func checkParallelJoinShape(t *testing.T, db *testDB, n plan.Node, parallelBuild bool) {
	t.Helper()
	ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat, Workers: 2}
	defer db.mgr.Abort(ctx.Txn)
	it, err := BuildBatch(n, ctx)
	if err != nil {
		t.Fatal(err)
	}
	var p pipeline
	switch it := it.(type) {
	case *parallelScan:
		p = it.pipeline
	case *parallelAgg:
		p = it.pipeline
	}
	if p.workers < 2 || p.stages[len(p.stages)-1].probe == nil {
		t.Fatalf("workers=2 built %T, want a parallel probe", it)
	}
	if got := p.stages[len(p.stages)-1].probe.build.workers > 1; got != parallelBuild {
		t.Fatalf("parallel build = %v, want %v", got, parallelBuild)
	}
}
