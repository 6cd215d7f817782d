package neurdb

import (
	"fmt"
	"strings"
	"testing"
)

// TestIndexJoinReturnsMovedRowOnce is the regression test for the index
// join's duplicate: a row whose key moved away and back has two postings
// under that key, both pass the recheck, and the join used to emit the pair
// twice.
func TestIndexJoinReturnsMovedRowOnce(t *testing.T) {
	// The subtest keeps the name of the snapshot-isolation arm from
	// when the test also ran at a serializable level.
	t.Run("serializable=false", testIndexJoinReturnsMovedRowOnce)
}

func testIndexJoinReturnsMovedRowOnce(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE i (id INT PRIMARY KEY, k INT)`)
	mustExec(t, db, `CREATE INDEX ik ON i (k)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO i VALUES (0, 0)")
	for n := 1; n < 20000; n++ {
		fmt.Fprintf(&sb, ",(%d,%d)", n, n)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `CREATE TABLE o (id INT PRIMARY KEY, k INT)`)
	mustExec(t, db, `INSERT INTO o VALUES (1, 7), (2, 9)`)
	mustExec(t, db, `ANALYZE`)
	mustExec(t, db, `UPDATE i SET k = 100000 WHERE id = 7`)
	mustExec(t, db, `UPDATE i SET k = 7 WHERE id = 7`)

	const q = `SELECT o.id, i.id FROM o JOIN i ON o.k = i.k`
	if plan := explainText(t, db, q); !strings.Contains(plan, "IndexJoin(i, ") {
		t.Fatalf("the repro needs the index join, got:\n%s", plan)
	}
	check := func(s *Session, how string) {
		t.Helper()
		res, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(rowsToSorted(res)); got != "[1, 7 2, 9]" {
			t.Fatalf("%s: join rows %s, want [1, 7 2, 9]", how, got)
		}
	}
	s := db.NewSession()
	check(s, "autocommit")
	mustSession(t, s, `BEGIN`)
	check(s, "in transaction")
	mustSession(t, s, `COMMIT`)
}

func mustSession(t *testing.T, s *Session, sql string, args ...any) *Result {
	t.Helper()
	res, err := s.Exec(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// seedPredict creates r(id, a, score): 200 labelled rows score = a/2.
func seedPredict(t *testing.T, s *Session) {
	t.Helper()
	mustSession(t, s, `CREATE TABLE r (id INT PRIMARY KEY, a INT, score DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO r VALUES (1000, 0, 0.0)")
	for i := 1; i < 200; i++ {
		fmt.Fprintf(&sb, ",(%d,%d,%g)", 1000+i, i%10, float64(i%10)/2)
	}
	mustSession(t, s, sb.String())
	mustSession(t, s, `ANALYZE r`)
}

// TestPredictRunsInSessionTransaction: PREDICT runs in the session's open
// transaction like every other statement, so it sees the transaction's own
// uncommitted rows; it used to open a snapshot of its own and see none.
func TestPredictRunsInSessionTransaction(t *testing.T) {
	db := openTest(t)
	s := db.NewSession()
	seedPredict(t, s)
	const predict = `PREDICT VALUE OF score FROM r TRAIN ON a`
	mustSession(t, s, `BEGIN`)
	mustSession(t, s, `INSERT INTO r VALUES (10, 4, NULL), (11, 5, NULL)`)
	if res := mustSession(t, s, predict); len(res.Predictions) != 2 {
		t.Fatalf("%d predictions inside the transaction, want 2", len(res.Predictions))
	}
	// Another session does not see the uncommitted rows.
	if res := mustSession(t, db.NewSession(), predict); len(res.Predictions) != 0 {
		t.Fatalf("another session predicted %d uncommitted rows", len(res.Predictions))
	}
	mustSession(t, s, `COMMIT`)
	if res := mustSession(t, s, predict); len(res.Predictions) != 2 {
		t.Fatalf("%d predictions after COMMIT, want 2", len(res.Predictions))
	}
}

// TestPreparedWriteReplans: a prepared write lives in the plan cache like a
// prepared read — planned once, invalidated by the catalog version, bound per
// execution.
func TestPreparedWriteReplans(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT, v INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (0, 0, 0)")
	for i := 1; i < 3000; i++ {
		fmt.Fprintf(&sb, ",(%d,%d,0)", i, i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE t`)

	const sql = `UPDATE t SET v = $2 WHERE k = $1`
	up, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	if p := entryPlan(t, db, sql); !p.contains("SeqScan(t, (k = $1))") {
		t.Fatalf("plan before the index:\n%s", p.text)
	}
	_, m0 := db.PlanCacheStats()
	// Three executions, $n out of textual order, one NULL argument: one plan.
	for i, args := range [][]any{{5, 50}, {6, nil}, {nil, 70}} {
		res, err := up.Exec(args...)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[int]int{0: 1, 1: 1, 2: 0}[i]; res.Affected != want {
			t.Fatalf("execution %d affected %d rows, want %d", i, res.Affected, want)
		}
	}
	if _, m := db.PlanCacheStats(); m != m0 {
		t.Fatalf("re-execution compiled again: misses %d -> %d", m0, m)
	}
	if got := mustExec(t, db, `SELECT v FROM t WHERE k = 5`).Rows[0][0]; got.AsInt() != 50 {
		t.Fatalf("v of k=5: %v", got)
	}
	if got := mustExec(t, db, `SELECT v FROM t WHERE k = 6`).Rows[0][0]; !got.IsNull() {
		t.Fatalf("v of k=6: %v, want NULL", got)
	}

	// CREATE INDEX bumps the catalog version: the write replans onto it.
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	_, m0 = db.PlanCacheStats()
	if res, err := up.Exec(7, 77); err != nil || res.Affected != 1 {
		t.Fatalf("after CREATE INDEX: %+v, %v", res, err)
	}
	if _, m := db.PlanCacheStats(); m != m0+1 {
		t.Fatalf("CREATE INDEX did not invalidate the write's plan: misses %d -> %d", m0, m)
	}
	if p := entryPlan(t, db, sql); !p.contains("IndexScan(t, k=$1)") {
		t.Fatalf("plan after the index:\n%s", p.text)
	}

	// DROP TABLE: the next execution fails in the binder, and keeps failing.
	mustExec(t, db, `DROP TABLE t`)
	for i := 0; i < 2; i++ {
		if _, err := up.Exec(1, 1); err == nil || !strings.Contains(err.Error(), "does not exist") {
			t.Fatalf("execution after DROP TABLE: %v", err)
		}
	}
}

// TestLiteralInsertNotCached: a literal-only INSERT compiles to its rows, so
// it is never admitted to the plan cache — not the entry count, not the
// counters; an INSERT with parameters is a plan like any other.
func TestLiteralInsertNotCached(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT)`)
	n0 := db.plans.len()
	h0, m0 := db.PlanCacheStats()
	for i := 0; i < 300; i++ {
		mustExec(t, db, fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, i, 2*i))
	}
	if n := db.plans.len(); n != n0 {
		t.Fatalf("300 literal INSERTs left %d cache entries, was %d", n, n0)
	}
	if h, m := db.PlanCacheStats(); h != h0 || m != m0 {
		t.Fatalf("literal INSERTs moved the counters: hits %d -> %d, misses %d -> %d", h0, h, m0, m)
	}
	for i := 300; i < 310; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?, ? * 2)`, i, i)
	}
	if n := db.plans.len(); n != n0+1 {
		t.Fatalf("parameterized INSERT: %d cache entries, want %d", n, n0+1)
	}
	if h, m := db.PlanCacheStats(); h != h0+9 || m != m0+1 {
		t.Fatalf("parameterized INSERT: hits %d -> %d, misses %d -> %d, want +9/+1", h0, h, m0, m)
	}
	if got := queryInts(t, db, `SELECT COUNT(*) FROM t WHERE k = id * 2`); got[0] != 310 {
		t.Fatalf("%d rows with k = 2*id, want 310", got[0])
	}
}

// TestBinderStatementErrors: the errors INSERT and PREDICT used to raise in
// the facade now come from the binder, at Prepare time for a prepared
// statement, and still name the statement-level problem.
func TestBinderStatementErrors(t *testing.T) {
	db := openTest(t)
	seedPredict(t, db.NewSession())
	for _, c := range []struct {
		sql  string
		args []any
		want string
	}{
		{`INSERT INTO r VALUES (1, 2)`, nil, "INSERT arity mismatch: 2 values for 3 columns"},
		{`INSERT INTO r (id, a) VALUES (1, 2, 3)`, nil, "INSERT arity mismatch: 3 values for 2 columns"},
		{`INSERT INTO r (id, nope) VALUES (1, 2)`, nil, `no column "nope" in "r"`},
		{`INSERT INTO r (id, a, ID) VALUES (1, 2, 3)`, nil, `column "ID" specified more than once`},
		{`INSERT INTO r VALUES (1, a, 3.0)`, nil, `unknown column "a"`},
		{`INSERT INTO r VALUES (?, ?, ?)`, []any{1, 2}, "statement takes 3 parameters, got 2 arguments"},
		{`INSERT INTO r VALUES ($3, 1, 1.0)`, []any{1}, "statement takes 3 parameters, got 1 arguments"},
		{`PREDICT VALUE OF score FROM r TRAIN ON a VALUES (1, 2)`, nil, "PREDICT VALUES row 1 has 2 values for 1 feature columns"},
		{`PREDICT VALUE OF score FROM r TRAIN ON a VALUES (1), ()`, nil, ""}, // a parse error: any message
		{`PREDICT VALUE OF nope FROM r TRAIN ON a`, nil, `no column "nope" in "r"`},
		{`PREDICT VALUE OF score FROM r TRAIN ON nope`, nil, `no column "nope" in "r"`},
		{`PREDICT VALUE OF score FROM r TRAIN ON a VALUES ($2)`, []any{1}, "statement takes 2 parameters, got 1 arguments"},
	} {
		_, err := db.Exec(c.sql, c.args...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Exec(%q) error %v, want %q", c.sql, err, c.want)
		}
		// A prepared statement meets the binder's errors at Prepare.
		st, perr := db.Prepare(c.sql)
		if len(c.args) == 0 {
			if perr == nil || !strings.Contains(perr.Error(), c.want) {
				t.Errorf("Prepare(%q) error %v, want %q", c.sql, perr, c.want)
			}
			continue
		}
		if perr != nil {
			t.Errorf("Prepare(%q): %v", c.sql, perr)
			continue
		}
		if _, err := st.Exec(c.args...); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Prepare(%q).Exec error %v, want %q", c.sql, err, c.want)
		}
	}
	// VALUES take expressions and parameters through the same binder.
	mustExecArgs(t, db, `INSERT INTO r VALUES (?, -? + 1, 2.0 * 3)`, 1, 5)
	if got := mustExec(t, db, `SELECT a, score FROM r WHERE id = 1`).Rows[0]; got[0].AsInt() != -4 || got[1].AsFloat() != 6 {
		t.Fatalf("inserted row %v, want (-4, 6)", got)
	}
}
