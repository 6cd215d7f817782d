package neurdb

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"neurdb/internal/nn"
	"neurdb/internal/txn"
)

// seedMoved creates t(id PK, k INT) with an index on k and n rows k = id.
func seedMoved(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT)`)
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE t`)
}

// explainText returns EXPLAIN's output. A statement with placeholders needs
// its arguments supplied like any other, but the plan shown is the generic
// one: EXPLAIN does not substitute them.
func explainText(t *testing.T, db *DB, sql string, args ...any) string {
	t.Helper()
	var lines []string
	for _, row := range mustExecArgs(t, db, "EXPLAIN "+sql, args...).Rows {
		lines = append(lines, row[0].String())
	}
	return strings.Join(lines, "\n")
}

// seedText creates h(id INT PRIMARY KEY, b TEXT) with a B-tree on b and
// 3,000 rows b = 'k0000' … 'k2999', and analyzes it.
func seedText(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE h (id INT PRIMARY KEY, b TEXT)`)
	mustExec(t, db, `CREATE INDEX h_b ON h (b)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO h VALUES ")
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, 'k%04d')", i, i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE h`)
}

// TestTextPointQueryUsesIndex: ANALYZE counts a TEXT column's distinct
// values by their text, so an equality on a unique TEXT column is priced at
// one row and planned onto its B-tree. Counted by AsFloat, every such value
// read as 0: one distinct value, selectivity 1, a SeqScan.
func TestTextPointQueryUsesIndex(t *testing.T) {
	db := openTest(t)
	seedText(t, db)
	got := explainText(t, db, `SELECT id FROM h WHERE b = 'k0011'`)
	if !strings.Contains(got, "IndexScan(h, b=k0011)  (rows=1 ") {
		t.Fatalf("EXPLAIN:\n%s\nwant IndexScan(h, b=k0011) at rows=1", got)
	}
	if res := mustExec(t, db, `SELECT id FROM h WHERE b = 'k0011'`); len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 11 {
		t.Fatalf("rows %v, want [[11]]", res.Rows)
	}
}

// TestTextRangeQueryUsesIndex: a literal TEXT range is priced like the
// parameter range it spells, with the generic range selectivity, and so
// planned onto the B-tree as the prepared form is. Statistics keep float
// bounds only and read a non-numeric text as 0, so the histogram priced it
// at selectivity 1: a SeqScan over all 3,000 rows.
func TestTextRangeQueryUsesIndex(t *testing.T) {
	db := openTest(t)
	seedText(t, db)
	const want = "IndexScan(h, b in [k2990,k2995], (h.b < 'k2995'))  (rows=15 "
	sql := `SELECT id FROM h WHERE b >= 'k2990' AND b < 'k2995'`
	if got := explainText(t, db, sql); !strings.Contains(got, want) {
		t.Fatalf("EXPLAIN:\n%s\nwant %s", got, want)
	}
	if got := explainText(t, db, `SELECT id FROM h WHERE b >= ? AND b < ?`, "k2990", "k2995"); !strings.Contains(got, "IndexScan(h, b in [$1,$2], (h.b < $2))  (rows=15 ") {
		t.Fatalf("prepared EXPLAIN:\n%s", got)
	}
	res := mustExec(t, db, sql)
	var ids []int64
	for _, row := range res.Rows {
		ids = append(ids, row[0].AsInt())
	}
	if fmt.Sprint(ids) != "[2990 2991 2992 2993 2994]" {
		t.Fatalf("rows %v, want ids 2990…2994", ids)
	}
}

// TestRangeIndexScanReturnsMovedRowOnce is the regression test for
// duplicate rows out of range index scans: after UPDATE t SET k = 7 WHERE
// id = 5 the index holds row 5 under both 5 (stale) and 7 (live), and
// k <= 8 covers both.
func TestRangeIndexScanReturnsMovedRowOnce(t *testing.T) {
	// The subtest keeps the name of the snapshot-isolation arm from
	// when the test also ran at a serializable level.
	t.Run("serializable=false", testRangeIndexScanReturnsMovedRowOnce)
}

func testRangeIndexScanReturnsMovedRowOnce(t *testing.T) {
	db := openTest(t)
	seedMoved(t, db, 2000)
	mustExec(t, db, `UPDATE t SET k = 7 WHERE id = 5`)
	const q = `SELECT id, k FROM t WHERE k <= 8`
	if plan := explainText(t, db, q); !strings.Contains(plan, "IndexScan(t, k in [-inf,8])") {
		t.Fatalf("the repro needs the range index scan, got:\n%s", plan)
	}
	check := func(s *Session, how string) {
		t.Helper()
		res, err := s.Exec(q)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]int64{}
		for _, row := range res.Rows {
			if _, dup := seen[row[0].AsInt()]; dup {
				t.Fatalf("%s: row %d returned twice: %v", how, row[0].AsInt(), res.Rows)
			}
			seen[row[0].AsInt()] = row[1].AsInt()
		}
		if len(seen) != 9 || seen[5] != 7 {
			t.Fatalf("%s: rows %v", how, res.Rows)
		}
	}
	s := db.NewSession()
	check(s, "autocommit")
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	check(s, "in transaction")
	if _, err := s.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
}

// TestNotOverNullComparison: a comparison with NULL is NULL, so negating it
// keeps the row out, exactly as the un-negated spelling does — on a heap scan
// and as the residual filter of an index scan.
func TestNotOverNullComparison(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, x INT, y INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES (0, NULL, 9), (1, 1, 9), (2, 2, 9), (3, NULL, 1)")
	for i := 4; i < 3000; i++ {
		fmt.Fprintf(&sb, ", (%d, 1, 9)", i)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE t`)
	for _, c := range []struct {
		pred string
		want []int64
	}{
		{"NOT (x = 1)", []int64{2}}, // as x <> 1
		{"x <> 1", []int64{2}},
		{"NOT (x IN (1))", []int64{2}},
		{"NOT (x = 1 OR y > 4)", nil},            // row 3: NULL OR false is NULL
		{"NOT (x = 1 AND y > 4)", []int64{2, 3}}, // row 3: NULL AND false is false
	} {
		for _, access := range []struct{ where, plan string }{
			{c.pred, "SeqScan(t"},
			{"id < 10 AND " + c.pred, "IndexScan(t, id in [-inf,10]"},
		} {
			q := "SELECT id FROM t WHERE " + access.where
			if plan := explainText(t, db, q); !strings.Contains(plan, access.plan) {
				t.Fatalf("%s: want a %s...) plan, got:\n%s", q, access.plan, plan)
			}
			if got := queryInts(t, db, q); fmt.Sprint(got) != fmt.Sprint(c.want) {
				t.Errorf("%s: ids %v, want %v", q, got, c.want)
			}
		}
	}
}

// TestExplainPlannedKinds: EXPLAIN of every planned statement kind prints the
// node an execution of the same text runs — it compiles through the same
// plan-cache entry — with parameters left in place.
func TestExplainPlannedKinds(t *testing.T) {
	db := openTest(t)
	seedMoved(t, db, 2000)
	for _, c := range []struct {
		sql  string
		args []any
		want []string // one prefix per plan line
	}{
		{`SELECT k FROM t WHERE id = ?`, []any{3}, []string{"Project(t.k)", "  IndexScan(t, id=$1)"}},
		// PREDICT's children: the access node of its WITH clause (the rows
		// to train on), then that of its WHERE clause (the rows to predict).
		{`PREDICT VALUE OF k FROM t WHERE id >= ? AND id < ? TRAIN ON id WITH id >= ? AND id < ?`, []any{1000, 1010, 0, 1000},
			[]string{"Predict(VALUE OF t.k, features=1)", "  IndexScan(t, id in [$3,$4], (id < $4))", "  IndexScan(t, id in [$1,$2], (id < $2))"}},
		{`PREDICT VALUE OF k FROM t TRAIN ON id WITH k >= 5`, nil,
			[]string{"Predict(VALUE OF t.k, features=1)", "  SeqScan(t, (k >= 5))", "  SeqScan(t)  (rows="}},
		{`UPDATE t SET k = k + 1 WHERE id = ?`, []any{3}, []string{"Update(t, k = (k + 1))", "  IndexScan(t, id=$1)"}},
		{`UPDATE t SET k = 0 WHERE id = 12`, nil, []string{"Update(t, k = 0)", "  IndexScan(t, id=12)"}},
		{`DELETE FROM t WHERE k >= 100 AND k < 110`, nil, []string{"Delete(t)", "  IndexScan(t, k in [100,110], (k < 110))"}},
		{`DELETE FROM t WHERE k >= ?`, []any{3}, []string{"Delete(t)", "  SeqScan(t, (k >= $1))"}},
		{`UPDATE t SET k = 0`, nil, []string{"Update(t, k = 0)", "  SeqScan(t)  (rows="}},
		{`INSERT INTO t VALUES (?, 1), (9001, 2)`, []any{9000}, []string{"Insert(t, rows=2)"}},
		{`INSERT INTO t VALUES (9002, 2)`, nil, []string{"Insert(t, rows=1)"}},
		{`PREDICT VALUE OF k FROM t TRAIN ON id VALUES (?)`, []any{5}, []string{"Predict(VALUE OF t.k, features=1)", "  SeqScan(t)  (rows="}},
	} {
		_, m0 := db.PlanCacheStats()
		got := strings.Split(explainText(t, db, c.sql, c.args...), "\n")
		if len(got) != len(c.want) {
			t.Errorf("EXPLAIN %s:\n%s\nwant %q", c.sql, strings.Join(got, "\n"), c.want)
			continue
		}
		for i, line := range got {
			if !strings.HasPrefix(line, c.want[i]) || !strings.Contains(line, "  (rows=") {
				t.Errorf("EXPLAIN %s line %d: %q, want prefix %q", c.sql, i, line, c.want[i])
			}
		}
		// EXPLAIN left the plan in the cache under the inner text, and the
		// execution that follows runs that entry instead of compiling again.
		_, m1 := db.PlanCacheStats()
		mustExecArgs(t, db, c.sql, c.args...)
		if _, m2 := db.PlanCacheStats(); m2 != m1 || (m1 != m0+1 && len(c.args) > 0) {
			t.Errorf("%s: misses %d -> %d (EXPLAIN) -> %d (execution)", c.sql, m0, m1, m2)
		}
	}
	for _, bad := range []string{
		`EXPLAIN UPDATE t SET k = 0 WHERE nope = 1`,
		`EXPLAIN INSERT INTO t VALUES (1)`,
		`EXPLAIN ANALYZE t`,
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("%s did not fail", bad)
		}
	}
}

// TestIndexDrivenDMLSQL: point and range writes that reach their rows
// through an index change exactly those rows, with arguments bound at
// execution.
func TestIndexDrivenDMLSQL(t *testing.T) {
	db := openTest(t)
	seedMoved(t, db, 3000)
	up, err := db.Prepare(`UPDATE t SET k = k + ? WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{0, 17, 2999} {
		if res, err := up.Exec(10_000, id); err != nil || res.Affected != 1 {
			t.Fatalf("update %d: %+v, %v", id, res, err)
		}
	}
	if res, err := up.Exec(1, 3000); err != nil || res.Affected != 0 {
		t.Fatalf("update of a missing key: %+v, %v", res, err)
	}
	if got := queryInts(t, db, `SELECT id FROM t WHERE k >= 10000 ORDER BY id`); fmt.Sprint(got) != "[0 17 2999]" {
		t.Fatalf("updated rows: %v", got)
	}
	if res := mustExecArgs(t, db, `DELETE FROM t WHERE k >= ? AND k < ?`, 100, 120); res.Affected != 20 {
		t.Fatalf("range delete affected %d", res.Affected)
	}
	if res := mustExecArgs(t, db, `UPDATE t SET k = k + 5 WHERE k > ? AND k <= ?`, 200, 210); res.Affected != 10 {
		t.Fatalf("range update affected %d", res.Affected)
	}
	if n := mustExec(t, db, `SELECT COUNT(*) FROM t`).Rows[0][0].AsInt(); n != 2980 {
		t.Fatalf("rows left: %d", n)
	}
	if got := queryInts(t, db, `SELECT k FROM t WHERE id >= 200 AND id <= 211 ORDER BY id`); fmt.Sprint(got) != "[200 206 207 208 209 210 211 212 213 214 215 211]" {
		t.Fatalf("range update result: %v", got)
	}
}

// TestIndexDrivenDMLConflicts: snapshot isolation holds when writers and
// readers reach rows through the primary-key index — first-updater-wins on
// one row, and the classic write-skew pair on two rows commits both sides,
// the level's documented anomaly.
func TestIndexDrivenDMLConflicts(t *testing.T) {
	t.Run("write-write", func(t *testing.T) {
		db := openTest(t)
		seedMoved(t, db, 2000)
		s1, s2 := db.NewSession(), db.NewSession()
		for _, s := range []*Session{s1, s2} {
			if _, err := s.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s1.Exec(`UPDATE t SET k = 1 WHERE id = ?`, 700); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Exec(`UPDATE t SET k = 2 WHERE id = ?`, 700); !errors.Is(err, txn.ErrWriteConflict) {
			t.Fatalf("second updater: %v", err)
		}
		if _, err := s2.Exec(`ROLLBACK`); err != nil {
			t.Fatal(err)
		}
		if _, err := s1.Exec(`COMMIT`); err != nil {
			t.Fatal(err)
		}
		if got := queryInts(t, db, `SELECT k FROM t WHERE id = 700`); fmt.Sprint(got) != "[1]" {
			t.Fatalf("k = %v", got)
		}
	})
	t.Run("write skew", func(t *testing.T) {
		db := openTest(t)
		seedMoved(t, db, 2000)
		s1, s2 := db.NewSession(), db.NewSession()
		for _, s := range []*Session{s1, s2} {
			if _, err := s.Exec(`BEGIN`); err != nil {
				t.Fatal(err)
			}
			// Both read both rows, each through the index.
			for _, id := range []int{300, 900} {
				if _, err := s.Exec(`SELECT k FROM t WHERE id = ?`, id); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := s1.Exec(`UPDATE t SET k = 0 WHERE id = ?`, 300); err != nil {
			t.Fatal(err)
		}
		if _, err := s2.Exec(`UPDATE t SET k = 0 WHERE id = ?`, 900); err != nil {
			t.Fatal(err)
		}
		for _, s := range []*Session{s1, s2} {
			if _, err := s.Exec(`COMMIT`); err != nil {
				t.Fatal(err)
			}
		}
		if got := queryInts(t, db, `SELECT k FROM t WHERE id = 300 OR id = 900 ORDER BY id`); fmt.Sprint(got) != "[0 0]" {
			t.Fatalf("k = %v, want both rows 0", got)
		}
	})
}

// TestPredictAccessChildrenAgree: PREDICT finds its training rows and its
// rows to predict through access nodes, so the same statements on a table
// with an index on the filtered column (two IndexScan children) and without
// one (two SeqScan children) must return the same predictions in the same
// order and store the same model bytes — after updates that left stale
// postings in the index, inside a transaction that inserted the rows to
// predict, with inline VALUES, with neither clause.
func TestPredictAccessChildrenAgree(t *testing.T) {
	// The subtest keeps the name of the snapshot-isolation arm from
	// when the test also ran at a serializable level.
	t.Run("serializable=false", testPredictAccessChildrenAgree)
}

func testPredictAccessChildrenAgree(t *testing.T) {
	const windowed = `PREDICT VALUE OF score FROM r WHERE k >= ? AND k < ? TRAIN ON a, b WITH k >= ? AND k < ?`
	run := func(t *testing.T, indexed bool) string {
		db := openTest(t)
		mustExec(t, db, `CREATE TABLE r (id INT PRIMARY KEY, k INT, a INT, b INT, score DOUBLE)`)
		if indexed {
			mustExec(t, db, `CREATE INDEX r_k ON r (k)`)
		}
		var sb strings.Builder
		sb.WriteString("INSERT INTO r VALUES ")
		for i := 0; i < 3000; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			a, b := i%10, (i/10)%7
			fmt.Fprintf(&sb, "(%d, %d, %d, %d, %g)", i, i, a, b, float64(a)/4+float64(b*b)/16)
		}
		mustExec(t, db, sb.String())
		mustExec(t, db, `ANALYZE r`)
		// Key-changing churn: rows leave the window and some come back, so an
		// index holds postings under keys the rows no longer have, and two
		// postings for the rows that returned.
		mustExec(t, db, `UPDATE r SET k = k + 5000 WHERE id >= 100 AND id < 140`)
		mustExec(t, db, `UPDATE r SET k = k - 5000 WHERE id >= 100 AND id < 120`)
		mustExec(t, db, `DELETE FROM r WHERE id >= 200 AND id < 210`)

		scan := "SeqScan(r, "
		if indexed {
			scan = "IndexScan(r, k in ["
		}
		if plan := explainText(t, db, windowed, 2000, 2100, 0, 2000); strings.Count(plan, scan) != 2 {
			t.Fatalf("indexed=%v: want two %s...) children, got:\n%s", indexed, scan, plan)
		}

		var out strings.Builder
		record := func(what string, res *Result, want int) {
			t.Helper()
			if len(res.Predictions) != want {
				t.Fatalf("indexed=%v %s: %d predictions, want %d", indexed, what, len(res.Predictions), want)
			}
			fmt.Fprintf(&out, "%s:", what)
			for _, p := range res.Predictions {
				fmt.Fprintf(&out, " %x", math.Float64bits(p))
			}
			out.WriteByte('\n')
		}
		s := db.NewSession()
		exec := func(sql string, args ...any) *Result {
			t.Helper()
			res, err := s.Exec(sql, args...)
			if err != nil {
				t.Fatalf("indexed=%v %s: %v", indexed, sql, err)
			}
			return res
		}
		record("train", exec(windowed, 2000, 2100, 0, 2000), 100)
		record("fine-tune", exec(windowed, 2100, 2200, 100, 2100), 100)
		record("moved rows", exec(windowed, 5100, 5200, 0, 2000), 20) // the 20 that did not come back
		exec(`BEGIN`)
		exec(`INSERT INTO r VALUES (9000, 9000, 3, 4, NULL), (9001, 9001, 5, 6, NULL), (9002, 9002, 7, 1, 1.5)`)
		record("own inserts", exec(windowed, 9000, 9010, 0, 2000), 3)
		record("null targets in txn", exec(`PREDICT VALUE OF score FROM r TRAIN ON a, b`), 2)
		exec(`ROLLBACK`)
		record("after rollback", exec(windowed, 9000, 9010, 0, 2000), 0)
		record("inline values", exec(`PREDICT VALUE OF score FROM r TRAIN ON a, b WITH k >= ? AND k < ? VALUES (1, 2), (?, 4)`, 500, 2500, 9), 2)
		exec(`INSERT INTO r VALUES (9100, 9100, 2, 2, NULL)`)
		record("neither clause", exec(`PREDICT VALUE OF score FROM r TRAIN ON a, b`), 1)

		view, ok := db.ModelStore().FindViewByName("r.score")
		if !ok {
			t.Fatal("no model bound to r.score")
		}
		for _, ts := range db.ModelStore().Versions(view.MID) {
			layers, _, err := db.ModelStore().Load(view.MID, ts)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range layers {
				fmt.Fprintf(&out, "model@%d %s\n", ts, weightBits(l))
			}
		}
		return out.String()
	}
	indexed, scanned := run(t, true), run(t, false)
	if indexed != scanned {
		t.Fatalf("index-driven and scan-driven PREDICT disagree:\n%s", firstDiffLine(indexed, scanned))
	}
}

// weightBits renders a stored layer exactly: its tensor shapes, then every
// weight's float64 bits, tensor by tensor.
func weightBits(lw nn.LayerWeights) string {
	var b strings.Builder
	fmt.Fprint(&b, lw.Shapes)
	for _, d := range lw.Datas {
		b.WriteString(" |")
		for _, v := range d {
			fmt.Fprintf(&b, " %016x", math.Float64bits(v))
		}
	}
	return b.String()
}

// firstDiffLine shows the first line two outputs disagree on.
func firstDiffLine(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n index %.200s\n  scan %.200s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(la), len(lb))
}
