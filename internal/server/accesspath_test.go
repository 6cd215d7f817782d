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
	"neurdb/internal/server"
	"neurdb/internal/sqlparse"
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
		if strings.Contains(plan.Rows[len(plan.Rows)-1][0].S, "IndexScan") {
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
