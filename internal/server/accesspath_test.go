package server_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/executor"
	"neurdb/internal/optimizer"
	"neurdb/internal/rel"
	"neurdb/internal/server"
	"neurdb/internal/sqlparse"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// heapScanRows runs sql with index scans forbidden — the reference every
// other route is compared against — and returns its rows as sorted text.
func heapScanRows(t *testing.T, db *neurdb.DB, sql string) []string {
	t.Helper()
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		t.Fatalf("parse %q: %v", sql, err)
	}
	q, err := optimizer.Bind(stmt.(*sqlparse.Select), db.Catalog())
	if err != nil {
		t.Fatal(err)
	}
	p, err := (&optimizer.Optimizer{Hints: optimizer.HintSet{NoIndexScan: true, NoIndexJoin: true}}).Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	tx := db.TxnManager().Begin(txn.Snapshot, true)
	defer db.TxnManager().Abort(tx)
	rows, err := executor.Run(p, &executor.Ctx{Mgr: db.TxnManager(), Txn: tx, Cat: db.Catalog()})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r[0].AsInt(), r[1].AsInt())
	}
	sort.Strings(out)
	return out
}

// TestIndexAndHeapScansAgreeOnEveryRoute: over a table that has seen
// key-changing updates (some moving a key away and back) and deletes, random
// point and range predicates return the same multiset of rows from a forced
// heap scan, from embedded Exec with the values inlined, from an embedded
// prepared statement, and from a prepared statement over the wire.
func TestIndexAndHeapScansAgreeOnEveryRoute(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 3000
	mustExec(t, c, `CREATE TABLE t (id INT PRIMARY KEY, k INT)`)
	mustExec(t, c, `CREATE INDEX t_k ON t (k)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i)
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, `ANALYZE t`)
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 600; i++ {
		id := r.Intn(n / 3) // a third of the table takes all the churn
		switch {
		case i%7 == 0:
			mustExec(t, c, `DELETE FROM t WHERE id = ?`, id)
		case i%11 == 0:
			mustExec(t, c, `UPDATE t SET k = ? WHERE k >= ? AND k < ?`, r.Intn(n/3), id, id+3)
		default:
			mustExec(t, c, `UPDATE t SET k = ? WHERE id = ?`, r.Intn(40), id)
		}
	}

	lower, upper := []string{">", ">="}, []string{"<", "<="}
	indexScans := 0
	for i := 0; i < 200; i++ {
		col := []string{"id", "k"}[r.Intn(2)]
		a := r.Intn(n / 3)
		if col == "k" && i%2 == 0 {
			a = r.Intn(45) // where the moved keys pile up
		}
		b := a + r.Intn(30)
		var shape string
		var args []any
		switch r.Intn(4) {
		case 0:
			shape, args = col+" = ?", []any{a}
		case 1:
			shape, args = fmt.Sprintf("%s %s ? AND %s %s ?", col, lower[r.Intn(2)], col, upper[r.Intn(2)]), []any{a, b}
		case 2:
			shape, args = fmt.Sprintf("? %s %s AND ? %s %s", upper[r.Intn(2)], col, lower[r.Intn(2)], col), []any{a, b}
		default:
			shape, args = fmt.Sprintf("%s %s ? AND %s %s ? AND %s <= ?", col, lower[r.Intn(2)], col, upper[r.Intn(2)], col), []any{a, b, b - 2}
		}
		prepared := `SELECT id, k FROM t WHERE ` + shape
		inlined := prepared
		for _, v := range args {
			inlined = strings.Replace(inlined, "?", fmt.Sprint(v), 1)
		}
		want := heapScanRows(t, db, inlined)

		plan, err := db.Exec("EXPLAIN " + inlined)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan.Rows[len(plan.Rows)-1][0].String(), "IndexScan") {
			indexScans++
		}
		check := func(route string, got []string) {
			t.Helper()
			sort.Strings(got)
			if strings.Join(got, ";") != strings.Join(want, ";") {
				t.Fatalf("%s, %s %v:\n got %v\nwant %v", route, prepared, args, got, want)
			}
		}

		res, err := db.Exec(inlined)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, row := range res.Rows {
			got = append(got, fmt.Sprint(row[0].AsInt(), row[1].AsInt()))
		}
		check("Exec", got)

		st, err := db.Prepare(prepared)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := st.Query(args...)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for rows.Next() {
			var id, k int64
			if err := rows.Scan(&id, &k); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprint(id, k))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()
		check("Prepare+Query", got)

		wrows, err := c.Query(prepared, args...)
		if err != nil {
			t.Fatal(err)
		}
		got = got[:0]
		for wrows.Next() {
			var id, k int64
			if err := wrows.Scan(&id, &k); err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprint(id, k))
		}
		if err := wrows.Err(); err != nil {
			t.Fatal(err)
		}
		wrows.Close()
		check("wire", got)
	}
	if indexScans < 100 {
		t.Fatalf("only %d of 200 predicates planned as index scans; the test is not exercising them", indexScans)
	}
}

// route is one way a statement reaches the engine. run executes sql (written
// with '?' placeholders) with args and reports what the statement returned:
// the affected-row count, or a PREDICT's predictions.
type route struct {
	name string
	db   *neurdb.DB
	run  func(sql string, args []any) (string, error)
}

// inline substitutes args into sql's placeholders, for the routes that take
// no parameters.
func inline(sql string, args []any) string {
	for _, v := range args {
		sql = strings.Replace(sql, "?", fmt.Sprint(v), 1)
	}
	return sql
}

// embeddedOutcome and wireOutcome render a statement's result the same way
// from both sides of the wire.
func embeddedOutcome(res *neurdb.Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	vals := make([]float64, len(res.Rows))
	for i, row := range res.Rows {
		vals[i] = row[0].AsFloat()
	}
	return fmt.Sprint(res.Affected, vals), nil
}

func wireOutcome(rows *client.Rows, err error) (string, error) {
	if err != nil {
		return "", err
	}
	defer rows.Close()
	vals := []float64{}
	for rows.Next() {
		var v float64
		if err := rows.Scan(&v); err != nil {
			return "", err
		}
		vals = append(vals, v)
	}
	if err := rows.Err(); err != nil {
		return "", err
	}
	affected := rows.Affected()
	if len(vals) > 0 {
		affected = 0 // the wire reports rows returned where the engine reports none affected
	}
	return fmt.Sprint(affected, vals), nil
}

// writeRoutes opens every entry point, each on a database of its own:
// Session.Exec, Prepare+Exec, and the wire's simple and extended protocols.
func writeRoutes(t *testing.T) []route {
	t.Helper()
	embedded := func() *neurdb.DB { return neurdb.Open(neurdb.DefaultConfig()) }
	wire := func() (*neurdb.DB, *client.Conn) {
		db, addr := startServer(t, server.Config{})
		c, err := client.Connect(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return db, c
	}
	execDB, prepDB := embedded(), embedded()
	execSession := execDB.NewSession() // one session: a sequence may span BEGIN … COMMIT
	simpleDB, simple := wire()
	extDB, ext := wire()
	prepared := map[string]*neurdb.Stmt{}
	wirePrepared := map[string]*client.Stmt{}
	return []route{
		{"Session.Exec", execDB, func(sql string, args []any) (string, error) {
			return embeddedOutcome(execSession.Exec(inline(sql, args)))
		}},
		{"Prepare+Exec", prepDB, func(sql string, args []any) (string, error) {
			st, ok := prepared[sql]
			if !ok {
				var err error
				if st, err = prepDB.Prepare(sql); err != nil {
					return "", err
				}
				prepared[sql] = st
			}
			return embeddedOutcome(st.Exec(args...))
		}},
		{"wire simple", simpleDB, func(sql string, args []any) (string, error) {
			return wireOutcome(simple.Query(inline(sql, args)))
		}},
		{"wire extended", extDB, func(sql string, args []any) (string, error) {
			st, ok := wirePrepared[sql]
			if !ok {
				var err error
				if st, err = ext.Prepare(sql); err != nil {
					return "", err
				}
				wirePrepared[sql] = st
			}
			return wireOutcome(st.Query(args...))
		}},
	}
}

// tableState renders everything a write leaves behind in table t: every heap
// slot (RowID, visibility, row), every index posting list, the statistics.
func tableState(t *testing.T, db *neurdb.DB) string {
	t.Helper()
	tbl, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	mgr := db.TxnManager()
	tx := mgr.Begin(txn.Snapshot, true)
	defer mgr.Abort(tx)
	var sb strings.Builder
	tbl.Heap.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
		for slot, head := range heads {
			if head != nil {
				id := storage.RowID{Page: pageID, Slot: uint32(slot)}
				row, ok := mgr.ReadHead(head, tx)
				fmt.Fprintf(&sb, "%v %v %v\n", id, ok, row)
			}
		}
		return true
	})
	for _, ix := range tbl.Indexes() {
		ix.BT.Range(nil, nil, func(k rel.Value, ids []storage.RowID) bool {
			fmt.Fprintf(&sb, "%s %v %v\n", ix.Name, k, ids)
			return true
		})
	}
	snap := tbl.Stats.Snapshot()
	fmt.Fprintf(&sb, "%v %v\n", snap.RowCount, snap.Cols)
	return sb.String()
}

// TestWritesAgreeOnEveryRoute: one seeded sequence of INSERT, UPDATE, DELETE
// and PREDICT statements, run through every entry point on a database of its
// own, returns the same counts and predictions statement by statement and
// leaves byte-identical heaps, index postings and statistics — there is one
// statement pipeline, whichever door a statement comes in by. Refused
// statements are part of the sequence: an UPDATE that would store NULL in the
// primary key, alone and inside a transaction, which it takes down with it.
func TestWritesAgreeOnEveryRoute(t *testing.T) {
	type step struct {
		sql  string
		args []any
		fail string // the statement must fail with an error containing this
	}
	const n = 1500
	steps := []step{
		{sql: `CREATE TABLE t (id INT PRIMARY KEY, k INT, v DOUBLE)`},
		{sql: `CREATE INDEX t_k ON t (k)`},
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d, %g)", i, i%50, float64(i%50)/4)
	}
	steps = append(steps, step{sql: sb.String()}, step{sql: `ANALYZE t`})
	const (
		notNull = "null value in NOT NULL column t.id"
		aborted = "current transaction is aborted"
	)
	r := rand.New(rand.NewSource(13))
	next := n
	for i := 0; i < 80; i++ {
		id, k := r.Intn(n), r.Intn(50)
		switch i % 8 {
		case 0:
			steps = append(steps, step{sql: `INSERT INTO t VALUES (?, ?, ?), (?, ? + 1, NULL)`, args: []any{next, k, float64(k) / 4, next + 1, k}})
			next += 2
		case 1:
			steps = append(steps, step{sql: `UPDATE t SET k = ? WHERE id = ?`, args: []any{k, id}})
		case 2:
			steps = append(steps, step{sql: `UPDATE t SET k = k + ?, v = v + 0.25 WHERE k >= ? AND k < ?`, args: []any{r.Intn(3), k, k + 2}})
		case 3:
			steps = append(steps, step{sql: `DELETE FROM t WHERE id = ?`, args: []any{id}})
		case 4:
			steps = append(steps, step{sql: `UPDATE t SET k = ? WHERE id = ?`, args: []any{k, id}}, step{sql: `UPDATE t SET k = ? WHERE id = ?`, args: []any{id % 50, id}})
		case 5:
			steps = append(steps, step{sql: `DELETE FROM t WHERE k = ? AND id >= ?`, args: []any{k, n - 100}})
		case 6:
			steps = append(steps, step{sql: `UPDATE t SET v = ? WHERE k >= ?`, args: []any{float64(k) / 4, 48}})
		default:
			// PREDICT in its three shapes: rows with a NULL target, inline
			// rows, and both row sources chosen by parameterized clauses
			// (an index probe on id to train on, one on k to predict).
			switch (i / 8) % 3 {
			case 0:
				steps = append(steps, step{sql: `PREDICT VALUE OF v FROM t TRAIN ON k`})
			case 1:
				steps = append(steps, step{sql: `PREDICT VALUE OF v FROM t TRAIN ON k VALUES (?), (? + 1)`, args: []any{k, k}})
			default:
				steps = append(steps, step{sql: `PREDICT VALUE OF v FROM t WHERE k >= ? AND k < ? TRAIN ON k WITH id >= ? AND id < ?`, args: []any{k, k + 2, id / 2, id/2 + n/2}})
			}
		}
		switch i {
		case 20: // refused on its own: the autocommit transaction rolls back
			steps = append(steps, step{sql: `UPDATE t SET id = NULL, v = 7777 WHERE k = ?`, args: []any{k}, fail: notNull})
		case 40: // refused after a write in the same transaction: both are undone
			steps = append(steps,
				step{sql: `BEGIN`},
				step{sql: `UPDATE t SET v = 7777 WHERE k >= ? AND k < ?`, args: []any{k, k + 5}},
				step{sql: `UPDATE t SET id = NULL WHERE id = ?`, args: []any{id}, fail: notNull},
				step{sql: `DELETE FROM t WHERE id = ?`, args: []any{id}, fail: aborted},
				step{sql: `COMMIT`, fail: aborted},
				step{sql: `DELETE FROM t WHERE v = 7777`}) // finds nothing
		}
	}

	var want []string
	var wantState string
	for ri, rt := range writeRoutes(t) {
		var got []string
		for _, s := range steps {
			out, err := rt.run(s.sql, s.args)
			if s.fail != "" {
				if err == nil || !strings.Contains(err.Error(), s.fail) {
					t.Fatalf("%s: %s %v: error %v, want %q", rt.name, s.sql, s.args, err, s.fail)
				}
				out = "refused"
			} else if err != nil {
				t.Fatalf("%s: %s %v: %v", rt.name, s.sql, s.args, err)
			}
			got = append(got, out)
		}
		state := tableState(t, rt.db)
		if ri == 0 {
			want, wantState = got, state
			predictions := 0
			for i, s := range steps {
				if strings.HasPrefix(s.sql, "PREDICT") && got[i] != "0 []" {
					predictions++
				}
			}
			if predictions < 6 {
				t.Fatalf("only %d PREDICT statements returned predictions; the test is not exercising them", predictions)
			}
			for i, s := range steps {
				if s.sql == `DELETE FROM t WHERE v = 7777` && got[i] != "0 []" {
					t.Fatalf("rows written before the refused UPDATE survived its transaction: DELETE returned %s", got[i])
				}
			}
			continue
		}
		for i := range steps {
			if got[i] != want[i] {
				t.Fatalf("%s: statement %d (%s %v) returned %s, Session.Exec returned %s", rt.name, i, steps[i].sql, steps[i].args, got[i], want[i])
			}
		}
		if state != wantState {
			t.Fatalf("%s left a different table than Session.Exec:\n%s", rt.name, firstDiff(state, wantState))
		}
	}
}

// firstDiff shows the first line two table states disagree on.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(la) && i < len(lb); i++ {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n got %s\nwant %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(la), len(lb))
}

// TestPredictInTransactionOverWire: PREDICT over the wire runs in the
// connection's open transaction and sees its uncommitted rows.
func TestPredictInTransactionOverWire(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE r (id INT PRIMARY KEY, a INT, score DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO r VALUES (1000, 0, 0.0)")
	for i := 1; i < 200; i++ {
		fmt.Fprintf(&sb, ",(%d,%d,%g)", 1000+i, i%10, float64(i%10)/2)
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, `ANALYZE r`)
	const predict = `PREDICT VALUE OF score FROM r TRAIN ON a`
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `INSERT INTO r VALUES (10, 4, NULL), (11, 5, NULL)`)
	if res := mustExec(t, c, predict); res.Affected != 2 {
		t.Fatalf("simple protocol: %d predictions inside the transaction, want 2", res.Affected)
	}
	st, err := c.Prepare(predict)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := st.Exec(); err != nil || res.Affected != 2 {
		t.Fatalf("extended protocol: %+v, %v, want 2 predictions", res, err)
	}
	mustExec(t, c, `ROLLBACK`)
	if res := mustExec(t, c, predict); res.Affected != 0 {
		t.Fatalf("%d predictions after ROLLBACK, want 0", res.Affected)
	}
}

// TestPredictFeatureListRefusedOverWire: a PREDICT that lists other feature
// columns than the ones its model was trained on fails with an error naming
// both lists — fewer columns or as many, simple protocol or prepared — stores
// no model version, and leaves the connection and the original statement
// working.
func TestPredictFeatureListRefusedOverWire(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE r (id INT PRIMARY KEY, a INT, b INT, c INT, score DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO r VALUES (0, 0, 0, 0, 0.0)")
	for i := 1; i < 300; i++ {
		fmt.Fprintf(&sb, ",(%d,%d,%d,%d,%g)", i, i%10, i%7, i%3, float64(i%10)/2+float64(i%7)/7)
	}
	mustExec(t, c, sb.String())
	mustExec(t, c, `ANALYZE r`)

	original, err := c.Prepare(`PREDICT VALUE OF score FROM r TRAIN ON a, b VALUES ($1, $2)`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := original.Exec(3, 4); err != nil || res.Affected != 1 {
		t.Fatalf("original statement: %+v, %v", res, err)
	}
	refused := func(err error, listed string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "trained on (a, b)") || !strings.Contains(err.Error(), listed) {
			t.Fatalf("error %v, want one naming (a, b) and %s", err, listed)
		}
	}
	_, err = c.Exec(`PREDICT VALUE OF score FROM r TRAIN ON b, c VALUES (1, 2)`)
	refused(err, "(b, c)")
	_, err = c.Exec(`PREDICT VALUE OF score FROM r TRAIN ON a VALUES (1)`)
	refused(err, "(a)")
	narrower, err := c.Prepare(`PREDICT VALUE OF score FROM r WHERE id < $1 TRAIN ON a`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = narrower.Exec(10)
	refused(err, "(a)")

	view, ok := db.ModelStore().FindViewByName("r.score")
	if !ok {
		t.Fatal("no model bound to r.score")
	}
	if n := len(db.ModelStore().Versions(view.MID)); n != 1 {
		t.Fatalf("refused statements stored versions: %d, want 1", n)
	}
	if res, err := original.Exec(5, 6); err != nil || res.Affected != 1 {
		t.Fatalf("original statement after the refusals: %+v, %v", res, err)
	}
	if n := len(db.ModelStore().Versions(view.MID)); n != 2 {
		t.Fatalf("%d versions after the original statement ran again, want 2", n)
	}
}
