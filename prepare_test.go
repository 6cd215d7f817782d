package neurdb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"neurdb/internal/executor"
	"neurdb/internal/plan"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// seedKV creates and fills a table large enough to span several executor
// batches, with NULLs sprinkled into the value column.
func seedKV(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val DOUBLE)`)
	const chunk = 250
	for base := 0; base < n; base += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv VALUES ")
		for i := base; i < base+chunk && i < n; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			if i%11 == 0 {
				fmt.Fprintf(&sb, "(%d,%d,NULL)", i, i%7)
			} else {
				fmt.Fprintf(&sb, "(%d,%d,%g)", i, i%7, float64(i)*0.5)
			}
		}
		mustExec(t, db, sb.String())
	}
}

// rowsToSorted renders rows to strings and sorts them, so comparisons are
// order-insensitive where ordering is unspecified.
func rowsToSorted(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	sort.Strings(out)
	return out
}

// samePreparedAndDirect executes prepared with args three times (a cached
// plan must stay correct on re-execution) and direct once per run, and
// requires identical results, in any order.
func samePreparedAndDirect(t *testing.T, db *DB, prepared string, args []any, direct string) {
	t.Helper()
	st, err := db.Prepare(prepared)
	if err != nil {
		t.Fatalf("Prepare(%q): %v", prepared, err)
	}
	for run := 0; run < 3; run++ {
		got, err := st.Exec(args...)
		if err != nil {
			t.Fatalf("Stmt.Exec(%q, run %d): %v", prepared, run, err)
		}
		want := mustExec(t, db, direct)
		g, w := rowsToSorted(got), rowsToSorted(want)
		if len(g) != len(w) {
			t.Fatalf("%q run %d: prepared %d rows, direct %d rows", prepared, run, len(g), len(w))
		}
		for i := range g {
			if g[i] != w[i] {
				t.Fatalf("%q run %d row %d: prepared %q, direct %q", prepared, run, i, g[i], w[i])
			}
		}
	}
	st.Close()
	if _, err := st.Exec(args...); err == nil {
		t.Fatalf("Exec on closed statement %q succeeded", prepared)
	}
}

// TestPreparedVsDirectDifferential executes the same statements prepared
// (with parameters) and direct (with literals) and requires identical
// results, including NULL parameters and LIMIT 0. Between them the cases put
// a parameter in every slot an operator binds as it is compiled: scan and
// index-scan filters, each probe bound, a projection, a join's ON condition,
// an aggregate's group key, key item and argument, a sort key, UPDATE's SET.
// The last ones run on a table of several morsels at four workers, so the
// per-worker aggregate partials and the ordered exchange's workers read the
// bound expressions.
func TestPreparedVsDirectDifferential(t *testing.T) {
	db := openTest(t)
	seedKV(t, db, 1000)
	mustExec(t, db, `ANALYZE kv`)

	cases := []struct {
		prepared string
		args     []any
		direct   string
	}{
		{`SELECT val FROM kv WHERE id = ?`, []any{423}, `SELECT val FROM kv WHERE id = 423`},
		{`SELECT id FROM kv WHERE id >= ? AND id < ?`, []any{100, 140}, `SELECT id FROM kv WHERE id >= 100 AND id < 140`},
		{`SELECT id, val FROM kv WHERE grp = ? AND val > ?`, []any{3, 200.0}, `SELECT id, val FROM kv WHERE grp = 3 AND val > 200.0`},
		// Upper-only index bound.
		{`SELECT id FROM kv WHERE id <= ?`, []any{30}, `SELECT id FROM kv WHERE id <= 30`},
		// NULL parameter: comparisons with NULL match nothing.
		{`SELECT id FROM kv WHERE val = ?`, []any{nil}, `SELECT id FROM kv WHERE val = NULL`},
		{`SELECT id FROM kv WHERE id < ?`, []any{nil}, `SELECT id FROM kv WHERE id < NULL`},
		// Parameter in a projected expression.
		{`SELECT id + ? FROM kv WHERE id < 5`, []any{1000}, `SELECT id + 1000 FROM kv WHERE id < 5`},
		// Parameter in a join's ON condition (a filter over the hash join).
		{`SELECT a.id, b.id FROM kv a JOIN kv b ON a.grp = b.id AND a.val > b.id + ? WHERE a.id < 60`, []any{20},
			`SELECT a.id, b.id FROM kv a JOIN kv b ON a.grp = b.id AND a.val > b.id + 20 WHERE a.id < 60`},
		// LIMIT 0 must return no rows and pull nothing.
		{`SELECT id FROM kv WHERE grp = ? LIMIT 0`, []any{2}, `SELECT id FROM kv WHERE grp = 2 LIMIT 0`},
		// Aggregation with a parameterized filter, argument and group key.
		{`SELECT grp, COUNT(*), AVG(val) FROM kv WHERE id < ? GROUP BY grp`, []any{500}, `SELECT grp, COUNT(*), AVG(val) FROM kv WHERE id < 500 GROUP BY grp`},
		{`SELECT SUM(val * ?) FROM kv`, []any{3}, `SELECT SUM(val * 3) FROM kv`},
		{`SELECT grp + $1, COUNT(*) FROM kv GROUP BY grp + $1`, []any{10}, `SELECT grp + 10, COUNT(*) FROM kv GROUP BY grp + 10`},
		// ORDER BY with a parameterized predicate, and with a parameterized key.
		{`SELECT id FROM kv WHERE grp = ? ORDER BY id DESC LIMIT 10`, []any{5}, `SELECT id FROM kv WHERE grp = 5 ORDER BY id DESC LIMIT 10`},
		{`SELECT id FROM kv ORDER BY val * ? LIMIT 3`, []any{-1}, `SELECT id FROM kv ORDER BY val * -1 LIMIT 3`},
		// $n spelling, out of textual order.
		{`SELECT id FROM kv WHERE id > $2 AND id < $1`, []any{20, 10}, `SELECT id FROM kv WHERE id > 10 AND id < 20`},
	}
	for _, tc := range cases {
		samePreparedAndDirect(t, db, tc.prepared, tc.args, tc.direct)
	}

	// UPDATE's SET and its index range, read back: the prepared statement on
	// one database, its literal spelling on a twin.
	twin := openTest(t)
	seedKV(t, twin, 1000)
	mustExec(t, twin, `ANALYZE kv`)
	mustExecArgs(t, db, `UPDATE kv SET val = val + ? WHERE id >= ? AND id < ?`, 0.25, 100, 140)
	mustExec(t, twin, `UPDATE kv SET val = val + 0.25 WHERE id >= 100 AND id < 140`)
	if g, w := rowsToSorted(mustExec(t, db, `SELECT id, val FROM kv`)), rowsToSorted(mustExec(t, twin, `SELECT id, val FROM kv`)); strings.Join(g, ";") != strings.Join(w, ";") {
		t.Fatal("prepared and literal UPDATE left different rows")
	}

	big := openTest(t)
	seedKV(t, big, 5000) // 40 heap pages: three morsels
	mustExec(t, big, `SET workers = 4`)
	// SUM over integers: exact whatever the split across partials.
	samePreparedAndDirect(t, big, `SELECT grp * ?, COUNT(*), SUM(grp * ?), MAX(val * ?) FROM kv WHERE id > ? GROUP BY grp * ?`,
		[]any{2, 3, -1, 100, 2}, `SELECT grp * 2, COUNT(*), SUM(grp * 3), MAX(val * -1) FROM kv WHERE id > 100 GROUP BY grp * 2`)
	samePreparedAndDirect(t, big, `SELECT id, val * ? FROM kv WHERE val > ?`, []any{2, 1000.0},
		`SELECT id, val * 2 FROM kv WHERE val > 1000.0`)
}

// TestStreamingRowsMatchExec drives the cursor API over a multi-batch
// result and checks it yields exactly what Exec materializes, while never
// holding more than one executor batch.
func TestStreamingRowsMatchExec(t *testing.T) {
	db := openTest(t)
	seedKV(t, db, 1500)

	want := mustExec(t, db, `SELECT id, val FROM kv WHERE grp <> 6`)
	rows, err := db.Query(`SELECT id, val FROM kv WHERE grp <> ?`, 6)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		got = append(got, rows.Row().String())
		// Structural check for the acceptance criterion: the cursor holds
		// one executor batch at a time. A batch may overshoot BatchSize by
		// less than one heap page (the producer appends whole pages until
		// the target is reached), never by more.
		if n := rows.batch.Len(); n >= executor.BatchSize+storage.RowsPerPage {
			t.Fatalf("cursor buffer holds %d rows (>= one batch of %d + one page of %d)",
				n, executor.BatchSize, storage.RowsPerPage)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Rows) {
		t.Fatalf("streamed %d rows, Exec returned %d", len(got), len(want.Rows))
	}
	sort.Strings(got)
	w := rowsToSorted(want)
	for i := range got {
		if got[i] != w[i] {
			t.Fatalf("row %d: streamed %q, Exec %q", i, got[i], w[i])
		}
	}
}

// TestRowsScan checks Scan target conversions including NULL handling.
func TestRowsScan(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE s (i INT, f DOUBLE, s TEXT, b BOOL)`)
	mustExec(t, db, `INSERT INTO s VALUES (7, 2.5, 'hi', TRUE), (NULL, NULL, NULL, NULL)`)
	rows, err := db.Query(`SELECT i, f, s, b FROM s`)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()

	var i int64
	var f float64
	var str string
	var b bool
	if !rows.Next() {
		t.Fatal("no first row")
	}
	if err := rows.Scan(&i, &f, &str, &b); err != nil {
		t.Fatal(err)
	}
	if i != 7 || f != 2.5 || str != "hi" || b != true {
		t.Fatalf("scanned (%d, %g, %q, %v)", i, f, str, b)
	}
	if !rows.Next() {
		t.Fatal("no second row")
	}
	var anyI, anyF any
	if err := rows.Scan(&anyI, &anyF, &str, &b); err != nil {
		t.Fatal(err)
	}
	if anyI != nil || anyF != nil || str != "" || b != false {
		t.Fatalf("NULL row scanned as (%v, %v, %q, %v)", anyI, anyF, str, b)
	}
	if err := rows.Scan(&i); err == nil {
		t.Fatal("arity-mismatched Scan succeeded")
	}
}

// TestPlanCacheInvalidation checks hit/miss accounting and that DDL and
// ANALYZE invalidate cached plans (and that replanning picks up a new
// access path).
func TestPlanCacheInvalidation(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE pc (id INT, v DOUBLE)`) // no index yet
	for i := 0; i < 400; i += 100 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO pc VALUES ")
		for j := i; j < i+100; j++ {
			if j > i {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%g)", j, float64(j))
		}
		mustExec(t, db, sb.String())
	}
	// Statistics first, so distinct counts exist when the index appears and
	// the replanned generic plan can prefer it.
	mustExec(t, db, `ANALYZE pc`)

	const sql = `SELECT v FROM pc WHERE id = ?`
	st, err := db.Prepare(sql) // plans and caches: 1 miss
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := db.PlanCacheStats()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("after Prepare: hits=%d misses=%d, want 0/1", h0, m0)
	}
	if _, err := st.Exec(5); err != nil { // cache hit
		t.Fatal(err)
	}
	if h, _ := db.PlanCacheStats(); h != 1 {
		t.Fatalf("after first Exec: hits=%d, want 1", h)
	}
	if entryPlan(t, db, sql).contains("IndexScan") {
		t.Fatal("plan uses an index before one exists")
	}

	// DDL invalidates: the next execution must replan and find the index.
	mustExec(t, db, `CREATE INDEX pc_id ON pc (id)`)
	res, err := st.Exec(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("post-DDL exec returned %d rows", len(res.Rows))
	}
	_, mAfterDDL := db.PlanCacheStats()
	if mAfterDDL != m0+1 {
		t.Fatalf("CREATE INDEX did not invalidate: misses=%d, want %d", mAfterDDL, m0+1)
	}
	if !entryPlan(t, db, sql).contains("IndexScan") {
		t.Fatal("replanned statement still ignores the new index")
	}

	// ANALYZE invalidates too (fresh statistics change plan choice).
	mustExec(t, db, `ANALYZE pc`)
	if _, err := st.Exec(5); err != nil {
		t.Fatal(err)
	}
	if _, m := db.PlanCacheStats(); m != mAfterDDL+1 {
		t.Fatalf("ANALYZE did not invalidate: misses=%d, want %d", m, mAfterDDL+1)
	}
	// Steady state: hits only.
	_, mSteady := db.PlanCacheStats()
	for i := 0; i < 10; i++ {
		if _, err := st.Exec(i); err != nil {
			t.Fatal(err)
		}
	}
	if _, m := db.PlanCacheStats(); m != mSteady {
		t.Fatalf("steady-state executions missed: misses went %d -> %d", mSteady, m)
	}
	// A second session preparing the same text hits the shared cache.
	hBefore, mBefore := db.PlanCacheStats()
	if _, err := db.NewSession().Prepare(sql); err != nil {
		t.Fatal(err)
	}
	if h, m := db.PlanCacheStats(); h != hBefore+1 || m != mBefore {
		t.Fatalf("second session's Prepare: hits %d -> %d, misses %d -> %d; want one hit, no miss", hBefore, h, mBefore, m)
	}
}

// planView wraps a cached plan for assertions.
type planView struct{ text string }

func (p planView) contains(s string) bool { return strings.Contains(p.text, s) }

// entryPlan reads the cached plan for sql (white-box).
func entryPlan(t *testing.T, db *DB, sql string) planView {
	t.Helper()
	db.plans.mu.Lock()
	defer db.plans.mu.Unlock()
	el, ok := db.plans.entries[sql]
	if !ok {
		t.Fatalf("no cached plan for %q", sql)
	}
	return planView{text: plan.Explain(el.Value.(*planEntry).node)}
}

// TestPlanCacheLRUBound checks the cache never exceeds its capacity.
func TestPlanCacheLRUBound(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE b (id INT)`)
	mustExec(t, db, `INSERT INTO b VALUES (1)`)
	for i := 0; i < DefaultPlanCacheSize+50; i++ {
		if _, err := db.Prepare(fmt.Sprintf(`SELECT id FROM b WHERE id = %d`, i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.plans.len(); n > DefaultPlanCacheSize {
		t.Fatalf("plan cache holds %d entries, cap %d", n, DefaultPlanCacheSize)
	}
}

// TestConcurrentStmtAcrossSessions runs prepared statements concurrently on
// independent sessions sharing the plan cache (meaningful under -race).
func TestConcurrentStmtAcrossSessions(t *testing.T) {
	db := openTest(t)
	seedKV(t, db, 700)
	mustExec(t, db, `ANALYZE kv`)

	const goroutines = 8
	const iters = 60
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sess := db.NewSession()
			st, err := sess.Prepare(`SELECT val FROM kv WHERE id = ?`)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < iters; i++ {
				id := (g*131 + i*17) % 700
				rows, err := st.Query(id)
				if err != nil {
					errs <- err
					return
				}
				n := 0
				for rows.Next() {
					n++
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				rows.Close()
				if n != 1 {
					errs <- fmt.Errorf("id %d returned %d rows", id, n)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	hits, misses := db.PlanCacheStats()
	if hits == 0 {
		t.Fatalf("concurrent sessions never hit the shared cache (hits=%d misses=%d)", hits, misses)
	}
}

// TestRowsCloseMidStreamReleasesTxn verifies that closing a cursor before
// the stream is drained finalizes its read transaction: afterwards the
// oldest-active snapshot horizon advances past the reader's snapshot.
func TestRowsCloseMidStreamReleasesTxn(t *testing.T) {
	db := openTest(t)
	seedKV(t, db, 1200) // several batches

	rows, err := db.Query(`SELECT id FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("no rows streamed")
	}
	during := db.mgr.OldestActiveTS()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Only a commit that wrote moves the clock: a one-row write lets the
	// horizon move past the closed reader's snapshot.
	mustExec(t, db, `INSERT INTO kv VALUES (100000, 0, 0.5)`)
	probe := db.mgr.Begin(txn.Snapshot, true)
	after := db.mgr.OldestActiveTS()
	db.mgr.Abort(probe)
	// While the cursor was open its read txn pinned the horizon at its
	// StartTS; once closed, the probe (begun later) must be the oldest.
	if after <= during {
		t.Fatalf("snapshot horizon did not advance after Close: during=%d after=%d", during, after)
	}
}

// TestQueryWrapsNonSelect checks the cursor API covers the whole dialect.
func TestQueryWrapsNonSelect(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE q (id INT)`)
	rows, err := db.Query(`INSERT INTO q VALUES (1), (2), (3)`)
	if err != nil {
		t.Fatal(err)
	}
	if rows.Affected() != 3 || rows.Message() != "INSERT 3" {
		t.Fatalf("INSERT via Query: affected=%d message=%q", rows.Affected(), rows.Message())
	}
	if rows.Next() {
		t.Fatal("INSERT produced rows")
	}
	rows.Close()

	rows, err = db.Query(`EXPLAIN SELECT id FROM q WHERE id = 2`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		n++
	}
	rows.Close()
	if n == 0 {
		t.Fatal("EXPLAIN via Query produced no plan lines")
	}
}

// TestPreparedDML runs prepared INSERT/UPDATE/DELETE re-execution.
func TestPreparedDML(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE d (id INT PRIMARY KEY, v DOUBLE)`)

	ins, err := db.Prepare(`INSERT INTO d VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := ins.Exec(i, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM d`); res.Rows[0][0].AsInt() != 50 {
		t.Fatalf("prepared inserts: count = %s", res.Rows[0][0])
	}

	up, err := db.Prepare(`UPDATE d SET v = v + $2 WHERE id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := up.Exec(7, 100.0); err != nil || res.Affected != 1 {
		t.Fatalf("prepared update: %v affected=%v", err, res)
	}
	if res := mustExec(t, db, `SELECT v FROM d WHERE id = 7`); res.Rows[0][0].AsFloat() != 107 {
		t.Fatalf("update result: %s", res.Rows[0][0])
	}

	del, err := db.Prepare(`DELETE FROM d WHERE id >= ?`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := del.Exec(40); err != nil || res.Affected != 10 {
		t.Fatalf("prepared delete: %v affected=%v", err, res)
	}

	// Argument-count mismatch is rejected before execution.
	if _, err := ins.Exec(1); err == nil {
		t.Fatal("short argument list accepted")
	}
	if _, err := db.Exec(`SELECT id FROM d WHERE id = ?`); err == nil {
		t.Fatal("Exec with missing argument accepted")
	}
}

// TestMultiValuesInsertAtomic checks a bad tuple anywhere in a multi-VALUES
// INSERT inserts nothing (the batch path validates up front).
func TestMultiValuesInsertAtomic(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE a (id INT NOT NULL, v DOUBLE)`)
	if _, err := db.Exec(`INSERT INTO a VALUES (1, 1.0), (NULL, 2.0), (3, 3.0)`); err == nil {
		t.Fatal("NOT NULL violation accepted")
	}
	if res := mustExec(t, db, `SELECT COUNT(*) FROM a`); res.Rows[0][0].AsInt() != 0 {
		t.Fatalf("failed INSERT left %s rows", res.Rows[0][0])
	}
}

// TestPredictValuesArity checks inline PREDICT rows are validated against
// the feature count up front.
func TestPredictValuesArity(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE p (a DOUBLE, b DOUBLE, y DOUBLE)`)
	mustExec(t, db, `INSERT INTO p VALUES (1, 2, 3), (2, 3, 5), (3, 4, 7)`)
	_, err := db.Exec(`PREDICT VALUE OF y FROM p TRAIN ON a, b VALUES (1)`)
	if err == nil {
		t.Fatal("short VALUES row accepted")
	}
	if !strings.Contains(err.Error(), "feature columns") {
		t.Fatalf("error does not explain the arity: %v", err)
	}
	if _, err := db.Exec(`PREDICT VALUE OF y FROM p TRAIN ON a, b VALUES (1, 2, 3)`); err == nil {
		t.Fatal("long VALUES row accepted")
	}
}

// TestAdHocPlanCache: repeated non-prepared Session.Exec/Query SELECTs must
// hit the shared plan cache on the same (mode, SQL) key path prepared
// statements use, and DDL must invalidate them like any other entry.
func TestAdHocPlanCache(t *testing.T) {
	db := openTest(t)
	seedKV(t, db, 300)

	const sql = `SELECT grp, COUNT(*) FROM kv GROUP BY grp`
	h0, m0 := db.PlanCacheStats()
	first, err := db.Exec(sql) // miss: plans and caches
	if err != nil {
		t.Fatal(err)
	}
	if h, m := db.PlanCacheStats(); h != h0 || m != m0+1 {
		t.Fatalf("first ad-hoc exec: hits %d->%d misses %d->%d, want miss+1", h0, h, m0, m)
	}
	second, err := db.Exec(sql) // hit
	if err != nil {
		t.Fatal(err)
	}
	if h, _ := db.PlanCacheStats(); h != h0+1 {
		t.Fatalf("second ad-hoc exec did not hit the cache")
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("cached plan changed results: %d vs %d rows", len(first.Rows), len(second.Rows))
	}

	// A prepared statement with the same text shares the entry.
	st, err := db.Prepare(sql)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if h, _ := db.PlanCacheStats(); h != h0+2 {
		t.Fatalf("Prepare of the same text missed the ad-hoc entry")
	}

	// Query path hits too, and parameters bind per execution.
	rows, err := db.Query(`SELECT val FROM kv WHERE id = ?`, 7) // miss
	if err != nil {
		t.Fatal(err)
	}
	rows.Close()
	_, mBefore := db.PlanCacheStats()
	rows, err = db.Query(`SELECT val FROM kv WHERE id = ?`, 8) // hit, new arg
	if err != nil {
		t.Fatal(err)
	}
	got := 0
	for rows.Next() {
		got++
	}
	rows.Close()
	if got != 1 {
		t.Fatalf("parameterized cached plan returned %d rows, want 1", got)
	}
	if _, m := db.PlanCacheStats(); m != mBefore {
		t.Fatalf("repeated ad-hoc query missed the cache")
	}

	// DDL bumps the catalog version: the ad-hoc entry is invalidated.
	mustExec(t, db, `CREATE INDEX kv_grp ON kv (grp)`)
	_, mBefore = db.PlanCacheStats()
	if _, err := db.Exec(sql); err != nil {
		t.Fatal(err)
	}
	if _, m := db.PlanCacheStats(); m != mBefore+1 {
		t.Fatalf("DDL did not invalidate the ad-hoc cached plan")
	}
}
