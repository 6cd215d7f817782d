package neurdb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

func openTest(t *testing.T) *DB {
	t.Helper()
	return Open(DefaultConfig())
}

func mustExec(t *testing.T, db *DB, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE users (id INT PRIMARY KEY, name TEXT, age INT)`)
	mustExec(t, db, `INSERT INTO users VALUES (1, 'ann', 30), (2, 'bob', 25), (3, 'cat', 41)`)
	res := mustExec(t, db, `SELECT name FROM users WHERE age >= 30 ORDER BY age DESC`)
	if len(res.Rows) != 2 || res.Rows[0][0].String() != "cat" || res.Rows[1][0].String() != "ann" {
		t.Fatalf("rows: %v", res.Rows)
	}
	if res.Columns[0] != "users.name" {
		t.Fatalf("columns: %v", res.Columns)
	}
}

func TestInsertColumnList(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (a INT, b TEXT, c DOUBLE)`)
	mustExec(t, db, `INSERT INTO t (c, a) VALUES (2.5, 7)`)
	res := mustExec(t, db, `SELECT a, b, c FROM t`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 || !res.Rows[0][1].IsNull() || res.Rows[0][2].AsFloat() != 2.5 {
		t.Fatalf("row: %v", res.Rows)
	}
	// Constant arithmetic in VALUES.
	mustExec(t, db, `INSERT INTO t VALUES (2 + 3 * 4, 'x', 10.0 / 4)`)
	res = mustExec(t, db, `SELECT a, c FROM t WHERE b = 'x'`)
	if res.Rows[0][0].AsInt() != 14 || res.Rows[0][1].AsFloat() != 2.5 {
		t.Fatalf("const expr: %v", res.Rows)
	}
}

func TestUpdateDeleteSQL(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	res := mustExec(t, db, `UPDATE t SET v = v + 5 WHERE id <> 2`)
	if res.Affected != 2 {
		t.Fatalf("update affected %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT SUM(v) FROM t`)
	if res.Rows[0][0].AsFloat() != 70 {
		t.Fatalf("sum: %v", res.Rows)
	}
	// After the update rows are (1,15), (2,20), (3,35): only one matches.
	res = mustExec(t, db, `DELETE FROM t WHERE v > 25`)
	if res.Affected != 1 {
		t.Fatalf("delete affected %d", res.Affected)
	}
	res = mustExec(t, db, `SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("count: %v", res.Rows)
	}
}

func TestTransactionsCommitRollback(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `ROLLBACK`)
	if res := mustExec(t, db, `SELECT COUNT(*) FROM t`); res.Rows[0][0].AsInt() != 0 {
		t.Fatal("rollback did not discard insert")
	}
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	mustExec(t, db, `COMMIT`)
	if res := mustExec(t, db, `SELECT COUNT(*) FROM t`); res.Rows[0][0].AsInt() != 1 {
		t.Fatal("commit lost insert")
	}
	// Errors on unbalanced txn statements.
	if _, err := db.Exec(`COMMIT`); err == nil {
		t.Fatal("commit without begin should fail")
	}
	if _, err := db.Exec(`ROLLBACK`); err == nil {
		t.Fatal("rollback without begin should fail")
	}
	mustExec(t, db, `BEGIN`)
	if _, err := db.Exec(`BEGIN`); err == nil {
		t.Fatal("nested begin should fail")
	}
	mustExec(t, db, `ROLLBACK`)
}

func TestSessionsIsolated(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE t (id INT)`)
	s1 := db.NewSession()
	s2 := db.NewSession()
	if _, err := s1.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// s2 doesn't see s1's uncommitted insert.
	res, err := s2.Exec(`SELECT COUNT(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].AsInt() != 0 {
		t.Fatal("uncommitted insert leaked across sessions")
	}
	if _, err := s1.Exec(`COMMIT`); err != nil {
		t.Fatal(err)
	}
	res, _ = s2.Exec(`SELECT COUNT(*) FROM t`)
	if res.Rows[0][0].AsInt() != 1 {
		t.Fatal("committed insert invisible")
	}
}

func TestCreateIndexAndPlans(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE big (id INT, grp INT, v DOUBLE)`)
	r := rand.New(rand.NewSource(1))
	var sb strings.Builder
	sb.WriteString("INSERT INTO big VALUES ")
	grp7 := 0
	for i := 0; i < 3000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		grp := r.Intn(50)
		if grp == 7 {
			grp7++
		}
		fmt.Fprintf(&sb, "(%d, %d, %f)", i, grp, r.Float64())
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `CREATE INDEX big_id ON big (id)`)
	mustExec(t, db, `ANALYZE big`)
	res := mustExec(t, db, `EXPLAIN SELECT v FROM big WHERE id = 1500`)
	var text strings.Builder
	for _, row := range res.Rows {
		text.WriteString(row[0].String())
		text.WriteByte('\n')
	}
	if !strings.Contains(text.String(), "IndexScan") {
		t.Fatalf("expected IndexScan:\n%s", text.String())
	}
	q := mustExec(t, db, `SELECT v FROM big WHERE id = 1500`)
	if len(q.Rows) != 1 {
		t.Fatalf("index query rows: %d", len(q.Rows))
	}
	// An index on a column whose keys repeat: each key holds many postings.
	mustExec(t, db, `CREATE INDEX big_grp ON big (grp)`)
	q2 := mustExec(t, db, `SELECT COUNT(*) FROM big WHERE grp = 7`)
	if got := q2.Rows[0][0].AsInt(); got != int64(grp7) {
		t.Fatalf("grp = 7: %d rows, want %d", got, grp7)
	}
}

func TestJoinSQL(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE a (id INT, x INT)`)
	mustExec(t, db, `CREATE TABLE b (id INT, aid INT, y INT)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 10), (2, 20)`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 1, 100), (2, 1, 200), (3, 2, 300)`)
	res := mustExec(t, db, `SELECT a.x, b.y FROM a, b WHERE a.id = b.aid AND b.y >= 200`)
	if len(res.Rows) != 2 {
		t.Fatalf("join rows: %v", res.Rows)
	}
}

// TestOptimizerModesSwitch: there is one planner, on live statistics, so
// the optimizer-mode switch is gone — SET optimizer is refused like any
// unknown key — while the settings that remain still take.
func TestOptimizerModesSwitch(t *testing.T) {
	db := openTest(t)
	for _, sql := range []string{`SET optimizer = 'cost'`, `SET nothing = '1'`} {
		if _, err := db.Exec(sql); err == nil || !strings.Contains(err.Error(), "unknown setting") {
			t.Fatalf("%s: err %v, want an unknown setting", sql, err)
		}
	}
	mustExec(t, db, `SET workers = 2`)
	if got := db.session.effectiveWorkers(); got != 2 {
		t.Fatalf("after SET workers = 2 the session runs %d workers", got)
	}
}

func TestPredictRegressionListing1(t *testing.T) {
	// The paper's Listing 1 shape: predict missing review scores.
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE review (id INT PRIMARY KEY, brand_name TEXT, f1 INT, f2 INT, score DOUBLE)`)
	r := rand.New(rand.NewSource(2))
	var sb strings.Builder
	sb.WriteString("INSERT INTO review VALUES ")
	for i := 0; i < 600; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		f1, f2 := r.Intn(10), r.Intn(10)
		score := float64(f1)*0.4 + float64(f2)*0.1
		brand := "other"
		fmt.Fprintf(&sb, "(%d, '%s', %d, %d, %f)", i, brand, f1, f2, score)
	}
	// Rows whose score is to be predicted.
	for i := 600; i < 610; i++ {
		f1, f2 := r.Intn(10), r.Intn(10)
		fmt.Fprintf(&sb, ",(%d, 'Special Goods', %d, %d, NULL)", i, f1, f2)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE review`)
	res := mustExec(t, db, `PREDICT VALUE OF score
		FROM review
		WHERE brand_name = 'Special Goods'
		TRAIN ON *
		WITH brand_name <> 'Special Goods'`)
	if len(res.Predictions) != 10 {
		t.Fatalf("predictions: %d", len(res.Predictions))
	}
	// Predictions should be in a plausible range (labels span 0..4.5).
	for _, p := range res.Predictions {
		if p < -2 || p > 7 {
			t.Fatalf("wild prediction %v", p)
		}
	}
	if !strings.Contains(res.Message, "PREDICT VALUE") {
		t.Fatalf("message: %s", res.Message)
	}
}

func TestPredictClassificationListing2(t *testing.T) {
	// The paper's Listing 2 shape: classification with inline VALUES.
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE diabetes (pregnancies INT, glucose INT, blood_pressure INT, outcome INT)`)
	r := rand.New(rand.NewSource(3))
	var sb strings.Builder
	sb.WriteString("INSERT INTO diabetes VALUES ")
	for i := 0; i < 800; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		g := r.Intn(200)
		bp := 40 + r.Intn(80)
		preg := r.Intn(10)
		outcome := 0
		if g > 120 {
			outcome = 1
		}
		fmt.Fprintf(&sb, "(%d, %d, %d, %d)", preg, g, bp, outcome)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE diabetes`)
	res := mustExec(t, db, `PREDICT CLASS OF outcome
		FROM diabetes
		TRAIN ON pregnancies, glucose, blood_pressure
		VALUES (6, 190, 72), (1, 30, 66)`)
	if len(res.Predictions) != 2 {
		t.Fatalf("predictions: %d", len(res.Predictions))
	}
	if res.Rows[0][0].AsFloat() != 1 || res.Rows[1][0].AsFloat() != 0 {
		t.Fatalf("classes: %v (probs %v)", res.Rows, res.Predictions)
	}
}

func TestPredictReusesModelViaFineTune(t *testing.T) {
	db := openTest(t)
	mustExec(t, db, `CREATE TABLE m (f INT, target DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO m VALUES ")
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		f := r.Intn(8)
		fmt.Fprintf(&sb, "(%d, %f)", f, float64(f)*0.3)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE m`)
	res1 := mustExec(t, db, `PREDICT VALUE OF target FROM m TRAIN ON f VALUES (3)`)
	if strings.Contains(res1.Message, "reused=true") {
		t.Fatal("first predict should train fresh")
	}
	res2 := mustExec(t, db, `PREDICT VALUE OF target FROM m TRAIN ON f VALUES (3)`)
	if !strings.Contains(res2.Message, "reused=true") {
		t.Fatalf("second predict should fine-tune: %s", res2.Message)
	}
	// The model store holds two versions sharing the frozen prefix.
	tblModel, ok := db.ModelStore().FindViewByName("m.target")
	if !ok {
		t.Fatal("model view missing")
	}
	if len(db.ModelStore().Versions(tblModel.MID)) < 2 {
		t.Fatal("fine-tune did not create a version")
	}
}

// TestExecScriptAndErrors keeps its name from when DB.ExecScript ran its
// first three statements as one script.
func TestExecScriptAndErrors(t *testing.T) {
	db := openTest(t)
	var res *Result
	for _, sql := range []string{`CREATE TABLE t (a INT)`, `INSERT INTO t VALUES (1), (2)`, `SELECT COUNT(*) FROM t`} {
		var err error
		if res, err = db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	if res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("count: %v", res.Rows)
	}
	bad := []string{
		`SELECT * FROM missing`,
		`INSERT INTO missing VALUES (1)`,
		`INSERT INTO t VALUES (1, 2)`,
		`INSERT INTO t (zzz) VALUES (1)`,
		`UPDATE missing SET a = 1`,
		`UPDATE t SET zzz = 1`,
		`DELETE FROM missing`,
		`CREATE INDEX i ON missing (a)`,
		`CREATE INDEX i ON t (zzz)`,
		`DROP TABLE missing`,
		`PREDICT VALUE OF zzz FROM t TRAIN ON *`,
		`PREDICT VALUE OF a FROM missing TRAIN ON *`,
		`EXPLAIN INSERT INTO t VALUES (1, 2)`,
		`EXPLAIN BEGIN`,
		`CREATE TABLE t (a INT)`, // duplicate
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("Exec(%q) should fail", sql)
		}
	}
	if _, err := db.Exec(`DROP TABLE IF EXISTS missing`); err != nil {
		t.Fatal("IF EXISTS should tolerate missing table")
	}
}
