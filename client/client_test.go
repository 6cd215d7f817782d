package client_test

import (
	"database/sql"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/server"
	"neurdb/internal/wire"
)

func startServer(t testing.TB) (*neurdb.DB, string) {
	t.Helper()
	db := neurdb.Open(neurdb.DefaultConfig())
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(2 * time.Second) })
	return db, ln.Addr().String()
}

// TestDatabaseSQLDriver is the acceptance path: standard database/sql
// idioms over TCP, with repeated parameterized queries hitting the
// server's plan cache at >= 0.9.
func TestDatabaseSQLDriver(t *testing.T) {
	ndb, addr := startServer(t)

	db, err := sql.Open("neurdb", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One underlying wire connection keeps the session (and its prepared
	// statements) stable across the test.
	db.SetMaxOpenConns(1)

	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE acct (id INT PRIMARY KEY, owner TEXT, balance DOUBLE)`); err != nil {
		t.Fatal(err)
	}

	ins, err := db.Prepare(`INSERT INTO acct VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		res, err := ins.Exec(i, fmt.Sprintf("owner%d", i%7), float64(i)*1.5)
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := res.RowsAffected(); n != 1 {
			t.Fatalf("insert %d affected %d", i, n)
		}
	}
	ins.Close()

	sel, err := db.Prepare(`SELECT balance FROM acct WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer sel.Close()

	h0, m0 := ndb.PlanCacheStats()
	for i := 0; i < 100; i++ {
		var bal float64
		if err := sel.QueryRow(i).Scan(&bal); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if bal != float64(i)*1.5 {
			t.Fatalf("balance[%d] = %g", i, bal)
		}
	}
	h1, m1 := ndb.PlanCacheStats()
	hits, misses := h1-h0, m1-m0
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.9 {
		t.Fatalf("plan-cache hit rate %d/%d below 0.9", hits, hits+misses)
	}

	// NULL round trip.
	if _, err := db.Exec(`INSERT INTO acct VALUES (?, ?, ?)`, 1000, nil, nil); err != nil {
		t.Fatal(err)
	}
	var owner, bal any
	if err := db.QueryRow(`SELECT owner, balance FROM acct WHERE id = ?`, 1000).Scan(&owner, &bal); err != nil {
		t.Fatal(err)
	}
	if owner != nil || bal != nil {
		t.Fatalf("NULLs scanned as %v, %v", owner, bal)
	}

	// Transactions through the driver.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DELETE FROM acct WHERE id = ?`, 0); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := db.QueryRow(`SELECT id FROM acct WHERE id = ?`, 0).Scan(&n); err != nil {
		t.Fatalf("row deleted despite rollback: %v", err)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE acct SET balance = ? WHERE id = ?`, 99.0, 1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	var bal2 float64
	if err := db.QueryRow(`SELECT balance FROM acct WHERE id = ?`, 1).Scan(&bal2); err != nil {
		t.Fatal(err)
	}
	if bal2 != 99.0 {
		t.Fatalf("committed balance = %g", bal2)
	}
}

// TestDatabaseSQLInBandColumns covers a statement other than SELECT that
// returns rows (EXPLAIN): Describe announces its columns from the plan, so
// database/sql sizes its destinations correctly before the first row.
func TestDatabaseSQLInBandColumns(t *testing.T) {
	_, addr := startServer(t)
	db, err := sql.Open("neurdb", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE x (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Query(`EXPLAIN SELECT id FROM x WHERE id = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 1 || cols[0] != "plan" {
		t.Fatalf("EXPLAIN columns = %v", cols)
	}
	n := 0
	for rows.Next() {
		var line string
		if err := rows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		if line == "" {
			t.Fatal("empty plan line")
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("EXPLAIN returned no rows")
	}
}

// TestDifferentialWireVsEmbedded runs a query set both embedded
// (Session.Query) and over the wire (simple and prepared) and requires
// byte-identical textual results — the correctness contract for the
// protocol's value encoding and streaming order.
func TestDifferentialWireVsEmbedded(t *testing.T) {
	ndb, addr := startServer(t)

	seed := []string{
		`CREATE TABLE item (id INT PRIMARY KEY, cat TEXT, price DOUBLE, stock INT, active BOOLEAN)`,
		`CREATE TABLE cat (name TEXT, boost DOUBLE)`,
		`INSERT INTO cat VALUES ('a',1.5),('b',2.0),('c',0.5),(NULL,0.0)`,
	}
	for _, s := range seed {
		if _, err := ndb.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO item VALUES `)
	for i := 0; i < 1000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		cat := []string{"'a'", "'b'", "'c'", "NULL"}[i%4]
		fmt.Fprintf(&sb, "(%d,%s,%g,%d,%v)", i, cat, float64(i)*0.25, i%13, i%2 == 0)
	}
	if _, err := ndb.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	if _, err := ndb.Exec(`ANALYZE`); err != nil {
		t.Fatal(err)
	}

	queries := []string{
		`SELECT id, cat, price, stock, active FROM item WHERE id = 37`,
		`SELECT id, price FROM item WHERE price >= 200.0 ORDER BY id`,
		`SELECT cat, COUNT(*), SUM(price), AVG(stock) FROM item GROUP BY cat`,
		`SELECT id FROM item WHERE active = true ORDER BY price DESC LIMIT 17`,
		`SELECT item.id, cat.boost FROM item, cat WHERE item.cat = cat.name ORDER BY item.id LIMIT 50`,
		`SELECT id, stock FROM item WHERE stock > 10 AND price < 100.0 ORDER BY id`,
		`SELECT MIN(price), MAX(price), COUNT(*) FROM item`,
		`SELECT id FROM item WHERE cat = 'b' ORDER BY id LIMIT 0`,
	}

	session := ndb.NewSession()
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 64}) // force chunked streaming
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, q := range queries {
		embedded := embeddedResult(t, session, q)

		// Simple protocol.
		rows, err := c.Query(q)
		if err != nil {
			t.Fatalf("wire simple %q: %v", q, err)
		}
		if got := wireResult(t, rows); got != embedded {
			t.Errorf("simple %q:\nwire:     %q\nembedded: %q", q, got, embedded)
		}

		// Extended protocol with a chunked cursor.
		st, err := c.Prepare(q)
		if err != nil {
			t.Fatalf("prepare %q: %v", q, err)
		}
		rows, err = st.Query()
		if err != nil {
			t.Fatalf("wire prepared %q: %v", q, err)
		}
		if got := wireResult(t, rows); got != embedded {
			t.Errorf("prepared %q:\nwire:     %q\nembedded: %q", q, got, embedded)
		}
		st.Close()
	}
}

// TestGroupByWithoutAggregate: a GROUP BY with no aggregate call still
// groups — each group once, NULLs as one group, in first-seen order —
// embedded, prepared and over the wire.
func TestGroupByWithoutAggregate(t *testing.T) {
	ndb, addr := startServer(t)
	for _, s := range []string{`CREATE TABLE e (g INT)`, `INSERT INTO e VALUES (3),(1),(2),(1),(NULL)`} {
		if _, err := ndb.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	onEveryRoute(t, ndb, addr, `SELECT g FROM e GROUP BY g`, "e.g\n3\n1\n2\nNULL")
}

// The three tests below pin expression rules docs/ARCHITECTURE.md states
// under "Expression semantics", where NeurDB departs from PostgreSQL, on
// every route. A later change may move any of them to PostgreSQL's rule.

// exprTable opens a server over table n: one row of each sign, a zero row
// and an all-NULL row.
func exprTable(t *testing.T) (*neurdb.DB, string) {
	t.Helper()
	ndb, addr := startServer(t)
	for _, s := range []string{
		`CREATE TABLE n (id INT PRIMARY KEY, x INT, d DOUBLE, s TEXT)`,
		`INSERT INTO n VALUES (1, 7, 2.5, 'b'), (2, NULL, NULL, NULL), (3, -3, -1.5, 'a'), (4, 0, 0.0, '10')`,
	} {
		if _, err := ndb.Exec(s); err != nil {
			t.Fatal(err)
		}
	}
	return ndb, addr
}

// TestDivisionByZeroIsNull: x / 0 and x % 0 are NULL, for INT and DOUBLE
// alike, where PostgreSQL raises "division by zero".
func TestDivisionByZeroIsNull(t *testing.T) {
	ndb, addr := exprTable(t)
	onEveryRoute(t, ndb, addr, `SELECT id, x / 0, x % 0, d / 0, d % 0, x / 2 FROM n WHERE id <> 2`,
		"n.id|(n.x / 0)|(n.x % 0)|(n.d / 0)|(n.d % 0)|(n.x / 2)\n1, NULL, NULL, NULL, NULL, 3\n3, NULL, NULL, NULL, NULL, -1\n4, NULL, NULL, NULL, NULL, 0")
}

// TestNullSortsLowest: NULL sorts below every value — first under ORDER BY,
// last under DESC — and the top-k path (ORDER BY ... LIMIT) agrees with the
// full sort. PostgreSQL puts NULL last for ASC.
func TestNullSortsLowest(t *testing.T) {
	ndb, addr := exprTable(t)
	for q, want := range map[string]string{
		`SELECT id, x FROM n ORDER BY x`:              "n.id|n.x\n2, NULL\n3, -3\n4, 0\n1, 7",
		`SELECT id, x FROM n ORDER BY x DESC`:         "n.id|n.x\n1, 7\n4, 0\n3, -3\n2, NULL",
		`SELECT id, x FROM n ORDER BY x LIMIT 2`:      "n.id|n.x\n2, NULL\n3, -3",
		`SELECT id, x FROM n ORDER BY x DESC LIMIT 2`: "n.id|n.x\n1, 7\n4, 0",
		`SELECT id, x FROM n ORDER BY x DESC LIMIT 4`: "n.id|n.x\n1, 7\n4, 0\n3, -3\n2, NULL",
	} {
		onEveryRoute(t, ndb, addr, q, want)
	}
}

// TestTextComparesAboveNumbers: a TEXT value compares greater than every
// number, so s > 1 holds for every non-NULL s and s < 1 for none, where
// PostgreSQL refuses to compare text with an integer.
func TestTextComparesAboveNumbers(t *testing.T) {
	ndb, addr := exprTable(t)
	for q, want := range map[string]string{
		`SELECT id, s FROM n WHERE s > 1`:       "n.id|n.s\n1, b\n3, a\n4, 10",
		`SELECT id, s FROM n WHERE s > 1000000`: "n.id|n.s\n1, b\n3, a\n4, 10",
		`SELECT id, s FROM n WHERE s < 1`:       "n.id|n.s",
	} {
		onEveryRoute(t, ndb, addr, q, want)
	}
}

// onEveryRoute runs q embedded, embedded prepared, over the wire and wire
// prepared, and checks each result against want.
func onEveryRoute(t *testing.T, ndb *neurdb.DB, addr, q, want string) {
	t.Helper()
	session := ndb.NewSession()
	if got := embeddedResult(t, session, q); got != want {
		t.Errorf("embedded %q: got %q, want %q", q, got, want)
	}
	st, err := session.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rows.Columns(), "|")
	for rows.Next() {
		got += "\n" + rows.Row().String()
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("embedded prepared %q: got %q, want %q", q, got, want)
	}
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	wrows, err := c.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := wireResult(t, wrows); got != want {
		t.Errorf("wire %q: got %q, want %q", q, got, want)
	}
	wst, err := c.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer wst.Close()
	if wrows, err = wst.Query(); err != nil {
		t.Fatal(err)
	}
	if got := wireResult(t, wrows); got != want {
		t.Errorf("wire prepared %q: got %q, want %q", q, got, want)
	}
}

func embeddedResult(t *testing.T, s *neurdb.Session, q string) string {
	t.Helper()
	rows, err := s.Query(q)
	if err != nil {
		t.Fatalf("embedded %q: %v", q, err)
	}
	defer rows.Close()
	var sb strings.Builder
	sb.WriteString(strings.Join(rows.Columns(), "|"))
	for rows.Next() {
		sb.WriteByte('\n')
		sb.WriteString(rows.Row().String())
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("embedded %q: %v", q, err)
	}
	return sb.String()
}

func wireResult(t *testing.T, rows *client.Rows) string {
	t.Helper()
	var sb strings.Builder
	var wroteCols bool
	for rows.Next() {
		if !wroteCols {
			sb.WriteString(strings.Join(rows.Columns(), "|"))
			wroteCols = true
		}
		sb.WriteByte('\n')
		sb.WriteString(rows.RowText())
	}
	if !wroteCols {
		sb.WriteString(strings.Join(rows.Columns(), "|"))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

// TestLargeStatementNoLineCeiling pushes a multi-megabyte statement through
// the wire — the case the old line protocol's 1 MiB scanner cap silently
// dropped.
func TestLargeStatementNoLineCeiling(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE blob (id INT PRIMARY KEY, body TEXT)`); err != nil {
		t.Fatal(err)
	}
	body := strings.Repeat("m", 2<<20) // 2 MiB literal in one statement
	if _, err := c.Exec(fmt.Sprintf(`INSERT INTO blob VALUES (1,'%s')`, body)); err != nil {
		t.Fatalf("large insert: %v", err)
	}
	rows, err := c.Query(`SELECT body FROM blob WHERE id = ?`, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	for rows.Next() {
		rows.Scan(&got)
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if got != body {
		t.Fatalf("large body corrupted: %d bytes back, want %d", len(got), len(body))
	}
}

// TestEarlyCloseAbandonsChunkedResult closes a chunked cursor early: the
// remaining rows are never transferred, the server portal is closed, and
// the connection immediately serves the next query.
func TestEarlyCloseAbandonsChunkedResult(t *testing.T) {
	ndb, addr := startServer(t)
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE e (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO e VALUES `)
	for i := 0; i < 10000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	if _, err := c.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}

	st, err := c.Prepare(`SELECT id FROM e`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !rows.Next() {
			t.Fatalf("row %d missing: %v", i, rows.Err())
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}

	// The cursor's read transaction must be gone: a full count still works
	// and sees every row.
	res, err := c.Exec(`SELECT COUNT(*) FROM e`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatalf("count rows = %d", res.Affected)
	}
	_ = ndb
}

// TestConnBusyGuard rejects interleaved use while a cursor is open.
func TestConnBusyGuard(t *testing.T) {
	_, addr := startServer(t)
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Exec(`CREATE TABLE b (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`INSERT INTO b VALUES (1),(2),(3),(4),(5)`); err != nil {
		t.Fatal(err)
	}
	st, err := c.Prepare(`SELECT id FROM b`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	rows.Next()
	if _, err := c.Exec(`SELECT id FROM b`); err == nil {
		t.Fatal("interleaved Exec over an open cursor did not error")
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(`SELECT id FROM b`); err != nil {
		t.Fatalf("exec after Close: %v", err)
	}
}

// TestUseAfterClose pins the use-after-Close contract of every closable
// handle, embedded and over the wire: once closed, Next is false, Scan,
// Exec, Query and Prepare return an error, Err and a second Close stay
// callable, and nothing panics.
func TestUseAfterClose(t *testing.T) {
	db, addr := startServer(t)
	if _, err := db.Exec(`CREATE TABLE uac (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO uac VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}

	// closed is one handle's surface after Close: next and err are nil for
	// handles without them, and every fail entry must return an error.
	type closed struct {
		close func() error
		next  func() bool
		err   func() error
		fail  map[string]func() error
	}
	connect := func(t *testing.T) *client.Conn {
		c, err := client.ConnectOptions(addr, client.Options{FetchSize: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	var id int
	cases := []struct {
		name string
		open func(t *testing.T) closed
	}{
		{"embedded Rows", func(t *testing.T) closed {
			rows, err := db.Query(`SELECT id FROM uac`)
			if err != nil || !rows.Next() {
				t.Fatalf("query: %v", err)
			}
			return closed{close: rows.Close, next: rows.Next, err: rows.Err,
				fail: map[string]func() error{"Scan": func() error { return rows.Scan(&id) }}}
		}},
		{"embedded Stmt", func(t *testing.T) closed {
			st, err := db.Prepare(`SELECT id FROM uac WHERE id = ?`)
			if err != nil {
				t.Fatal(err)
			}
			return closed{close: st.Close, fail: map[string]func() error{
				"Exec":  func() error { _, err := st.Exec(1); return err },
				"Query": func() error { _, err := st.Query(1); return err },
			}}
		}},
		{"client Conn", func(t *testing.T) closed {
			c := connect(t)
			return closed{close: c.Close, fail: map[string]func() error{
				"Exec":    func() error { _, err := c.Exec(`SELECT id FROM uac`); return err },
				"Query":   func() error { _, err := c.Query(`SELECT id FROM uac WHERE id = ?`, 1); return err },
				"Prepare": func() error { _, err := c.Prepare(`SELECT id FROM uac`); return err },
			}}
		}},
		{"client Stmt", func(t *testing.T) closed {
			st, err := connect(t).Prepare(`SELECT id FROM uac WHERE id = ?`)
			if err != nil {
				t.Fatal(err)
			}
			return closed{close: st.Close, fail: map[string]func() error{
				"Exec":  func() error { _, err := st.Exec(1); return err },
				"Query": func() error { _, err := st.Query(1); return err },
			}}
		}},
		{"client Rows", func(t *testing.T) closed {
			rows, err := connect(t).Query(`SELECT id FROM uac WHERE id > ?`, 0)
			if err != nil || !rows.Next() {
				t.Fatalf("query: %v", err)
			}
			return closed{close: rows.Close, next: rows.Next, err: rows.Err,
				fail: map[string]func() error{"Scan": func() error { return rows.Scan(&id) }}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := tc.open(t)
			if err := h.close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			for name, use := range h.fail {
				if use() == nil {
					t.Errorf("%s succeeded after Close", name)
				}
			}
			if h.next != nil && h.next() {
				t.Error("Next returned true after Close")
			}
			if h.err != nil {
				_ = h.err()
			}
			if err := h.close(); err != nil {
				t.Errorf("second Close: %v", err)
			}
		})
	}

	// A Session used after Close rolls its transaction back and runs in
	// autocommit: its writes are visible at once and no snapshot stays
	// pinned, so the horizon advances past the closed transaction's.
	t.Run("embedded Session", func(t *testing.T) {
		s := db.NewSession()
		if _, err := s.Exec(`BEGIN`); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(`SELECT id FROM uac`); err != nil {
			t.Fatal(err)
		}
		pinned := db.TxnManager().OldestActiveTS()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(`INSERT INTO uac VALUES (4)`); err != nil {
			t.Fatalf("Exec after Close: %v", err)
		}
		res, err := db.Exec(`SELECT id FROM uac WHERE id = 4`)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("autocommit write after Close not visible: %v %v", res, err)
		}
		if after := db.TxnManager().OldestActiveTS(); after <= pinned {
			t.Fatalf("snapshot horizon did not advance after Close: pinned=%d after=%d", pinned, after)
		}
	})
}

// slowAcceptListener hands the server every connection after the first one
// delay late: the first is the test's own, and each later one (a Cancel's
// side connection) reaches the server only after the delay.
type slowAcceptListener struct {
	net.Listener
	delay    time.Duration
	accepted atomic.Int32
}

func (l *slowAcceptListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil && l.accepted.Add(1) > 1 {
		time.Sleep(l.delay)
	}
	return c, err
}

// TestCancelWaitsForServer: Cancel returns only once the server has applied
// the cancel, so the next chunk fetched after it fails with CANCELED. The
// server here accepts the side connection 100 ms late; a Cancel that
// returned as soon as its frame was flushed would let the caller drain the
// whole result in that window.
func TestCancelWaitsForServer(t *testing.T) {
	db := neurdb.Open(neurdb.DefaultConfig())
	if _, err := db.Exec(`CREATE TABLE n (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO n VALUES (0)")
	for i := 1; i < 5000; i++ {
		fmt.Fprintf(&sb, ",(%d)", i)
	}
	if _, err := db.Exec(sb.String()); err != nil {
		t.Fatal(err)
	}
	srv := server.New(db, server.Config{})
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &slowAcceptListener{Listener: raw, delay: 100 * time.Millisecond}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Shutdown(2 * time.Second) })

	const fetch = 100
	c, err := client.ConnectOptions(ln.Addr().String(), client.Options{FetchSize: fetch})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Prepare(`SELECT id FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	if err := c.Cancel(); err != nil {
		t.Fatal(err)
	}
	n := 1
	for rows.Next() {
		n++
	}
	var srvErr *client.Error
	if !errors.As(rows.Err(), &srvErr) || srvErr.Code != wire.CodeCanceled || n > fetch {
		t.Fatalf("after Cancel returned: %d rows (the first chunk holds %d), err %v", n, fetch, rows.Err())
	}
}
