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
	"neurdb/internal/txn"
)

// randPlanSeeds is the fixed seed list of the random-plan differential. A
// failure prints its seed; add that seed here to keep the case.
var randPlanSeeds = []int64{1, 2, 3}

const randPlanQueries = 25 // per seed

// TestRandomPlansMatchOracle: seeded random SELECTs over three multi-page
// tables, each planned under every optimizer.StandardHintSets arm; every plan
// must produce the oracle's row sequence serially, morsel-parallel (Workers
// 4), under snapshot isolation and under SSI, and every arm of a query
// without LIMIT the same multiset of rows. The tables hold NULL keys, deleted
// rows, version chains, stale and doubled index postings (key-changing
// updates, keys moved away and back), postings of an aborted and of a
// still-open transaction.
func TestRandomPlansMatchOracle(t *testing.T) {
	covered := map[string]bool{}
	for _, seed := range randPlanSeeds {
		randomPlans(t, seed, covered)
	}
	for _, kind := range []string{"SeqScan", "IndexScan", "HashJoin", "NLJoin", "IndexJoin", "Filter", "Project", "Agg", "Sort", "Limit"} {
		if !covered[kind] {
			t.Errorf("no generated plan contained a %s: the differential no longer covers it", kind)
		}
	}
}

func randomPlans(t *testing.T, seed int64, covered map[string]bool) {
	r := rand.New(rand.NewSource(seed))
	db := newTestDB(t)
	sizes := []int{5200, 1100, 260} // t0 is past minParallelPages
	for i, n := range sizes {
		seedChurnedTable(t, db, r, fmt.Sprintf("t%d", i), n)
	}
	// A writer that is still open while the queries run: its inserts, key
	// changes and deletes are in the heap and the indexes, visible to nobody.
	open := db.ctx()
	defer db.mgr.Abort(open.Txn)
	for i, n := range sizes {
		tbl, _ := db.cat.Get(fmt.Sprintf("t%d", i))
		churn(t, open, r, tbl, n, 30)
	}

	for qi := 0; qi < randPlanQueries; qi++ {
		sql := randomSelect(r, sizes)
		stmt, err := sqlparse.Parse(sql)
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, sql, err)
		}
		q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.cat)
		if err != nil {
			t.Fatalf("seed %d: %q: %v", seed, sql, err)
		}
		oracleOf := map[string][]rel.Row{} // by plan text: arms often agree on the plan
		var firstArm []string
		for _, arm := range optimizer.StandardHintSets() {
			p, err := (&optimizer.Optimizer{Stats: optimizer.LiveStats, Hints: arm, CardScale: 1}).Plan(q)
			if err != nil {
				t.Fatalf("seed %d: %q [%s]: %v", seed, sql, arm.Name, err)
			}
			text := plan.Explain(p)
			plan.Walk(p, func(n plan.Node, _ int) { covered[strings.TrimPrefix(fmt.Sprintf("%T", n), "*plan.")] = true })
			fail := func(what, diff string) {
				t.Helper()
				t.Fatalf("seed %d, %s, hint arm %q: %s: %s\n%s", seed, sql, arm.Name, what, diff, text)
			}
			want, ok := oracleOf[text]
			if !ok {
				want = db.oracleRows(p)
				oracleOf[text] = want
			}
			for _, iso := range []struct {
				name  string
				level txn.IsolationLevel
			}{{"snapshot", txn.Snapshot}, {"SSI", txn.Serializable}} {
				for _, workers := range []int{1, 4} {
					ctx := &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(iso.level, false), Cat: db.cat, Workers: workers}
					got, err := Run(p, ctx)
					db.mgr.Abort(ctx.Txn)
					if err != nil {
						fail(fmt.Sprintf("engine (%s, workers %d)", iso.name, workers), err.Error())
					}
					if d := diffRows(got, want); d != "" {
						fail(fmt.Sprintf("engine (%s, workers %d) vs oracle", iso.name, workers), d)
					}
				}
			}
			if !strings.Contains(sql, "LIMIT") { // a LIMIT may cut different plans' orders differently
				if firstArm == nil {
					firstArm = canonical(want)
				} else if !reflect.DeepEqual(canonical(want), firstArm) {
					fail("rows differ from the default arm's", fmt.Sprintf("%d rows vs %d", len(want), len(firstArm)))
				}
			}
		}
	}
}

// randKey draws a join/probe key: a small domain, so keys repeat within and
// across tables, and the occasional NULL.
func randKey(r *rand.Rand) rel.Value {
	if r.Intn(20) == 0 {
		return rel.Null()
	}
	return rel.Int(int64(r.Intn(400)))
}

// seedChurnedTable creates name(id, k, g, v) with n rows — id unique and
// indexed, k indexed with NULLs, g a few groups with NULLs, v multiples of
// 0.5 (sums are exact in any order) with NULLs — then churns it in committed
// transactions plus one aborted one, and refreshes the statistics.
func seedChurnedTable(t *testing.T, db *testDB, r *rand.Rand, name string, n int) {
	tbl := db.mustCreate(name,
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "k", Typ: rel.TypeInt},
		rel.Column{Name: "g", Typ: rel.TypeInt},
		rel.Column{Name: "v", Typ: rel.TypeFloat},
	)
	tbl.AddIndex(&catalog.Index{Name: name + "_k", Col: 1, BT: index.NewBTree()}, nil)
	rows := make([]rel.Row, n)
	for i := range rows {
		g, v := rel.Int(int64(r.Intn(6))), rel.Float(float64(r.Intn(400))*0.5)
		if r.Intn(15) == 0 {
			g = rel.Null()
		}
		if r.Intn(15) == 0 {
			v = rel.Null()
		}
		rows[i] = rel.Row{rel.Int(int64(i)), randKey(r), g, v}
	}
	ctx := db.ctx()
	if _, err := InsertBatch(ctx, tbl, rows); err != nil {
		t.Fatal(err)
	}
	if err := db.mgr.Commit(ctx.Txn); err != nil {
		t.Fatal(err)
	}
	tbl.Stats.Rebuild(rows)
	for i := 0; i < 4; i++ {
		ctx := db.ctx()
		churn(t, ctx, r, tbl, n, n/16)
		if i == 2 {
			db.mgr.Abort(ctx.Txn) // its postings stay behind
		} else if err := db.mgr.Commit(ctx.Txn); err != nil {
			t.Fatal(err)
		}
	}
	sctx := db.ctx()
	tbl.Stats.Rebuild(oracleVisible(sctx, tbl))
	db.mgr.Abort(sctx.Txn)
}

// churn applies ops random single-row writes inside ctx's transaction: key
// changes (a stale posting each), keys moved away and back (a doubled
// posting), value-only updates (a version, no posting), deletes, inserts.
func churn(t *testing.T, ctx *Ctx, r *rand.Rand, tbl *catalog.Table, n, ops int) {
	t.Helper()
	for i := 0; i < ops; i++ {
		src := optimizer.New().AccessPath(tbl, colCmp(0, rel.OpEq, int64(r.Intn(n))))
		set := func(col int, v rel.Value) error {
			_, err := UpdateWhere(ctx, src, map[int]rel.Expr{col: &rel.Const{Val: v}})
			return err
		}
		var err error
		switch r.Intn(8) {
		case 0:
			_, err = DeleteWhere(ctx, src)
		case 1:
			err = set(3, rel.Float(float64(r.Intn(400))*0.5))
		case 2, 3: // away and back: two postings under the key it returns to
			back := randKey(r)
			for _, k := range []rel.Value{back, rel.Int(1000 + int64(r.Intn(50))), back} {
				if err == nil {
					err = set(1, k)
				}
			}
		case 4:
			_, err = insertRow(ctx, tbl, rel.Row{rel.Int(int64(10*n + r.Intn(n))), randKey(r), rel.Int(int64(r.Intn(6))), rel.Float(1.5)})
		default:
			err = set(1, randKey(r))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// --- the query generator ---

// randomPred is a random predicate over alias a's columns (a table of n
// rows): index probes (points, closed, half-open and strict ranges),
// residuals, NOT / OR / IN / IS NULL over nullable columns. selective asks
// for one that keeps at most a few hundred rows.
func randomPred(r *rand.Rand, a string, n int, selective bool) string {
	k := r.Intn(400)
	id := r.Intn(n)
	sel := []string{
		fmt.Sprintf("%s.id = %d", a, id),
		fmt.Sprintf("%s.k = %d", a, k),
		fmt.Sprintf("%s.k >= %d AND %s.k <= %d", a, k, a, k+r.Intn(8)),
		fmt.Sprintf("%s.k BETWEEN %d AND %d", a, k, k+r.Intn(8)),
		fmt.Sprintf("%s.k > %d AND %s.k < %d AND %s.g <> 3", a, k, a, k+2+r.Intn(8), a),
		fmt.Sprintf("%s.id >= %d AND %s.id < %d", a, id, a, id+r.Intn(300)),
		fmt.Sprintf("%s.id BETWEEN %d AND %d AND NOT (%s.g = 2)", a, id, id+r.Intn(300), a),
		fmt.Sprintf("%s.k IN (%d, %d, %d)", a, k, r.Intn(400), 1000+r.Intn(50)),
		fmt.Sprintf("%s.g = %d AND %s.v < %d", a, r.Intn(6), a, 2+r.Intn(8)),
		fmt.Sprintf("%s.k IS NULL AND %s.v > %d", a, a, r.Intn(150)),
	}
	if selective {
		return sel[r.Intn(len(sel))]
	}
	wide := []string{
		fmt.Sprintf("%s.k >= %d", a, k),
		fmt.Sprintf("%s.k < %d", a, k),
		fmt.Sprintf("%s.id > %d", a, id),
		fmt.Sprintf("NOT (%s.g = %d)", a, r.Intn(6)),
		fmt.Sprintf("NOT (%s.g IN (1, 4))", a),
		fmt.Sprintf("NOT (%s.k < %d OR %s.v > %d)", a, k, a, r.Intn(200)),
		fmt.Sprintf("%s.v > %d OR %s.k < %d", a, r.Intn(200), a, k/4),
		fmt.Sprintf("%s.g IS NOT NULL AND %s.v * 2 >= %d", a, a, r.Intn(300)),
		fmt.Sprintf("%s.k IS NULL OR %s.g IS NULL", a, a),
	}
	return append(sel, wide...)[r.Intn(len(sel)+len(wide))]
}

// randomSelect draws one SELECT over t0..t2 (sizes[i] rows each). A join
// that includes t0 always filters it selectively, so the oracle's nested
// loops stay small; single-table shapes scan it whole.
func randomSelect(r *rand.Rand, sizes []int) string {
	pick := func() (string, int) { i := r.Intn(len(sizes)); return fmt.Sprintf("t%d", i), sizes[i] }
	tail := func(order string) string {
		switch r.Intn(4) {
		case 0:
			return ""
		case 1:
			return fmt.Sprintf(" LIMIT %d", r.Intn(600))
		case 2:
			return " ORDER BY " + order
		default:
			return fmt.Sprintf(" ORDER BY %s LIMIT %d", order, r.Intn(600))
		}
	}
	switch r.Intn(9) {
	case 0, 1: // single table
		tbl, n := pick()
		return fmt.Sprintf("SELECT a.id, a.k, a.v FROM %s a WHERE %s%s", tbl, randomPred(r, "a", n, false),
			tail([]string{"a.g DESC, a.v", "a.k", "a.v DESC, a.k, a.id"}[r.Intn(3)]))
	case 2: // grouped aggregate
		tbl, n := pick()
		where := ""
		if r.Intn(2) == 0 {
			where = " WHERE " + randomPred(r, "a", n, false)
		}
		return fmt.Sprintf("SELECT a.g, COUNT(*), COUNT(a.v), SUM(a.v), AVG(a.v), MIN(a.k), MAX(a.v) FROM %s a%s GROUP BY a.g", tbl, where)
	case 3: // scalar aggregate, sometimes over nothing
		tbl, n := pick()
		return fmt.Sprintf("SELECT COUNT(*), SUM(a.v), MIN(a.v), MAX(a.k), AVG(a.k) FROM %s a WHERE %s", tbl, randomPred(r, "a", n, r.Intn(2) == 0))
	case 4, 5: // two-table equi-join
		ai, bi := r.Intn(3), r.Intn(3)
		for bi == ai {
			bi = r.Intn(3)
		}
		on := []string{"a.k = b.k", "a.k = b.id", "a.id = b.id", "a.g = b.id"}[r.Intn(4)]
		where := randomPred(r, "a", sizes[ai], ai == 0 || bi == 0)
		if bi == 0 || r.Intn(2) == 0 {
			where += " AND " + randomPred(r, "b", sizes[bi], bi == 0)
		}
		if r.Intn(3) == 0 {
			where += " AND a.v < b.v"
		}
		return fmt.Sprintf("SELECT a.id, b.id, a.v, b.g FROM t%d a JOIN t%d b ON %s WHERE %s%s", ai, bi, on, where,
			tail([]string{"a.v DESC, b.id", "b.k, a.id"}[r.Intn(2)]))
	case 6: // three-table join, sometimes aggregated
		where := "a.k = b.k AND b.g = c.id AND " + randomPred(r, "a", sizes[0], true)
		if r.Intn(2) == 0 {
			return fmt.Sprintf("SELECT c.g, COUNT(*), SUM(a.v), MAX(b.id) FROM t0 a, t1 b, t2 c WHERE %s GROUP BY c.g", where)
		}
		return fmt.Sprintf("SELECT a.id, b.id, c.id FROM t0 a, t1 b, t2 c WHERE %s%s", where, tail("c.id DESC, a.id, b.id"))
	case 7: // join feeding an aggregate; the big table on either side
		if r.Intn(2) == 0 {
			return fmt.Sprintf("SELECT b.g, COUNT(*), SUM(a.v) FROM t0 a JOIN t2 b ON a.g = b.id WHERE %s GROUP BY b.g", randomPred(r, "b", sizes[2], true))
		}
		return fmt.Sprintf("SELECT a.g, COUNT(*), MIN(b.v) FROM t2 a JOIN t0 b ON a.k = b.k WHERE %s GROUP BY a.g", randomPred(r, "a", sizes[2], false))
	default: // non-equi join: a nested loop on every arm
		return fmt.Sprintf("SELECT a.id, b.id FROM t1 a, t2 b WHERE a.id < %d AND b.id < %d AND a.k < b.k%s",
			1+r.Intn(80), 1+r.Intn(80), tail("b.id, a.id DESC"))
	}
}
