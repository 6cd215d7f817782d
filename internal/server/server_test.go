package server_test

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/server"
	"neurdb/internal/wire"
)

// startServer boots a wire server over a fresh database on a loopback
// port, returning the engine handle (for white-box assertions) and the
// address. The server is drained at test end.
func startServer(t *testing.T, cfg server.Config) (*neurdb.DB, string) {
	t.Helper()
	db := neurdb.Open(neurdb.DefaultConfig())
	srv := server.New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(2 * time.Second)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return db, ln.Addr().String()
}

func mustExec(t *testing.T, c *client.Conn, sql string, args ...any) *client.Result {
	t.Helper()
	res, err := c.Exec(sql, args...)
	if err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
	return res
}

func TestEndToEnd(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if v := c.ServerParam("protocol_version"); v != wire.FormatVersion(wire.Version) {
		t.Fatalf("protocol_version = %q", v)
	}

	mustExec(t, c, `CREATE TABLE review (id INT PRIMARY KEY, brand TEXT, score DOUBLE)`)
	res := mustExec(t, c, `INSERT INTO review VALUES (1,'acme',4.5),(2,'beta',3.0),(3,'acme',5.0)`)
	if res.Affected != 3 || res.Tag != "INSERT 3" {
		t.Fatalf("insert result = %+v", res)
	}

	// Parameterized DML through the extended protocol.
	res = mustExec(t, c, `UPDATE review SET score = ? WHERE id = ?`, 4.0, 2)
	if res.Affected != 1 {
		t.Fatalf("update affected = %d", res.Affected)
	}

	// Streaming SELECT with Scan.
	rows, err := c.Query(`SELECT brand, score FROM review WHERE score >= ? ORDER BY id`, 4.0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for rows.Next() {
		var brand string
		var score float64
		if err := rows.Scan(&brand, &score); err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%s=%g", brand, score))
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	want := []string{"acme=4.5", "beta=4", "acme=5"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("rows = %v, want %v", got, want)
	}

	// Explicit transaction spanning the session.
	mustExec(t, c, `BEGIN`)
	mustExec(t, c, `DELETE FROM review WHERE id = ?`, 3)
	mustExec(t, c, `ROLLBACK`)
	res = mustExec(t, c, `SELECT id FROM review`)
	if res.Affected != 3 {
		t.Fatalf("post-rollback count = %d, want 3", res.Affected)
	}

	// A statement error leaves the connection usable.
	if _, err := c.Exec(`SELECT nope FROM review`); err == nil {
		t.Fatal("bad column did not error")
	}
	mustExec(t, c, `SELECT id FROM review`)
}

// TestPreparedReuseHitsPlanCache is the core plan-cache contract: remote
// Parse goes through Session.Prepare, so repeated Execute calls on one
// prepared statement revalidate the shared cached plan instead of
// replanning.
func TestPreparedReuseHitsPlanCache(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec(t, c, `CREATE TABLE kv (id INT PRIMARY KEY, val DOUBLE)`)
	ins, err := c.Prepare(`INSERT INTO kv VALUES (?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := ins.Exec(i, float64(i)*0.5); err != nil {
			t.Fatal(err)
		}
	}
	ins.Close()

	st, err := c.Prepare(`SELECT val FROM kv WHERE id = ?`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	h0, m0 := db.PlanCacheStats()
	const iters = 100
	for i := 0; i < iters; i++ {
		rows, err := st.Query(i % 200)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		var val float64
		for rows.Next() {
			rows.Scan(&val)
			n++
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
		if n != 1 || val != float64(i%200)*0.5 {
			t.Fatalf("iter %d: %d rows, val=%g", i, n, val)
		}
	}
	h1, m1 := db.PlanCacheStats()
	hits, misses := h1-h0, m1-m0
	if total := hits + misses; total == 0 || float64(hits)/float64(total) < 0.9 {
		t.Fatalf("plan cache hit rate = %d/%d, want >= 0.9", hits, hits+misses)
	}
}

func TestDescribeMetadata(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec(t, c, `CREATE TABLE m (id INT PRIMARY KEY, note TEXT, ok BOOLEAN)`)

	st, err := c.Prepare(`SELECT note, ok, id FROM m WHERE id > ?`)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumParams() != 1 {
		t.Fatalf("NumParams = %d", st.NumParams())
	}
	if cols := st.Columns(); strings.Join(cols, ",") != "m.note,m.ok,m.id" {
		t.Fatalf("Columns = %v", cols)
	}
	st.Close()

	// Statements that return no rows describe as NoData: no columns.
	dml, err := c.Prepare(`INSERT INTO m VALUES (?, ?, ?)`)
	if err != nil {
		t.Fatal(err)
	}
	if cols := dml.Columns(); cols != nil {
		t.Fatalf("DML Columns = %v, want nil", cols)
	}
	if dml.NumParams() != 3 {
		t.Fatalf("DML NumParams = %d", dml.NumParams())
	}
	dml.Close()

	// Every statement that returns rows describes its shape before it runs:
	// EXPLAIN's one plan column, PREDICT's prediction column.
	mustExec(t, c, `CREATE TABLE p (id INT PRIMARY KEY, x DOUBLE, y DOUBLE)`)
	for sql, want := range map[string]string{
		`EXPLAIN SELECT id FROM m WHERE id = ?`:                       "plan",
		`EXPLAIN UPDATE m SET ok = TRUE WHERE id = ?`:                 "plan",
		`PREDICT VALUE OF y FROM p WHERE id > ? TRAIN ON x`:           "prediction",
		`PREDICT CLASS OF y FROM p TRAIN ON x WITH id < ? VALUES (1)`: "prediction",
	} {
		st, err := c.Prepare(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if cols := st.Columns(); strings.Join(cols, ",") != want {
			t.Fatalf("%s: Columns = %v, want [%s]", sql, cols, want)
		}
		st.Close()
	}
}

// TestConcurrentConnections exercises independent sessions under -race:
// every connection prepares its own statements and the plan cache is
// shared.
func TestConcurrentConnections(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	setup, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, setup, `CREATE TABLE c (id INT PRIMARY KEY, worker INT, val DOUBLE)`)
	setup.Close()

	const workers = 8
	const perWorker = 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := client.Connect(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			ins, err := c.Prepare(`INSERT INTO c VALUES (?, ?, ?)`)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < perWorker; i++ {
				if _, err := ins.Exec(w*perWorker+i, w, float64(i)); err != nil {
					errs <- fmt.Errorf("worker %d insert %d: %w", w, i, err)
					return
				}
			}
			sel, err := c.Prepare(`SELECT id FROM c WHERE worker = ?`)
			if err != nil {
				errs <- err
				return
			}
			rows, err := sel.Query(w)
			if err != nil {
				errs <- err
				return
			}
			n := 0
			for rows.Next() {
				n++
			}
			if err := rows.Close(); err != nil {
				errs <- err
				return
			}
			if n != perWorker {
				errs <- fmt.Errorf("worker %d saw %d own rows, want %d", w, n, perWorker)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestMidStreamDisconnect drops the TCP connection while the server is
// streaming a large result. The server must notice the failed write, close
// the cursor (releasing the read transaction so the snapshot horizon
// advances) and keep serving other clients.
func TestMidStreamDisconnect(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	setup, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, setup, `CREATE TABLE big (id INT PRIMARY KEY, pad TEXT)`)
	pad := strings.Repeat("x", 200)
	for base := 0; base < 20000; base += 500 {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := base; i < base+500; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,'%s')", i, pad)
		}
		mustExec(t, setup, sb.String())
	}
	setup.Close()

	// Raw wire connection so the socket can be severed mid-stream.
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(netc, 0)
	w := wire.NewWriter(netc)
	w.WriteMsg(&wire.Startup{Version: wire.Version})
	w.Flush()
	for {
		op, _, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op == wire.OpReady {
			break
		}
	}
	w.WriteMsg(&wire.Query{SQL: `SELECT id, pad FROM big`})
	w.WriteMsg(&wire.Sync{})
	w.Flush()
	// Pull the first data frame so the read transaction is provably open,
	// then sever the connection.
	for {
		op, _, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op == wire.OpDataBatch {
			break
		}
	}
	during := db.TxnManager().OldestActiveTS()
	netc.Close()

	// The server-side cursor must be closed and the snapshot horizon move
	// past the abandoned reader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		// Horizon = min(active snapshots, nextTS): bump nextTS with a tiny
		// write so a freed horizon is observable.
		if _, err := db.Exec(`INSERT INTO big VALUES (?, 'probe')`, 100000+int(time.Now().UnixNano()%100000)); err == nil {
			if db.TxnManager().OldestActiveTS() > during {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("snapshot horizon stuck at %d after disconnect", during)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// And the server still accepts new work.
	c2, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	res := mustExec(t, c2, `SELECT id FROM big WHERE id = ?`, 7)
	if res.Affected != 1 {
		t.Fatalf("post-disconnect select affected = %d", res.Affected)
	}
}

// TestCancel delivers a Cancel request over a side connection while a
// chunked query is being consumed; the in-flight portal must die with a
// CANCELED error and the connection stay usable.
func TestCancel(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.ConnectOptions(addr, client.Options{FetchSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	mustExec(t, c, `CREATE TABLE n (id INT PRIMARY KEY)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO n VALUES ")
	for i := 0; i < 5000; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d)", i)
	}
	mustExec(t, c, sb.String())

	st, err := c.Prepare(`SELECT id FROM n`)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
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
	err = rows.Err()
	if err == nil {
		t.Fatalf("query survived cancellation (%d rows)", n)
	}
	var werr *client.Error
	if !asClientError(err, &werr) || werr.Code != wire.CodeCanceled {
		t.Fatalf("err = %v, want CANCELED", err)
	}
	rows.Close()

	// Connection remains usable after the canceled sequence.
	res := mustExec(t, c, `SELECT id FROM n WHERE id = ?`, 3)
	if res.Affected != 1 {
		t.Fatalf("post-cancel select affected = %d", res.Affected)
	}
}

// TestCancelWhileSuspended pins the window TestCancel only hits by chance: a
// Cancel that lands after a chunk's last row check but before that chunk's
// Sync. The raw client stops between Execute and Sync, applies the Cancel
// (the server closes the side connection once it has), then syncs and
// resumes; the suspended portal must die with CANCELED every time.
func TestCancelWhileSuspended(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	if _, err := db.Exec(`CREATE TABLE n (id INT PRIMARY KEY)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO n VALUES (1),(2),(3),(4),(5),(6),(7),(8)`); err != nil {
		t.Fatal(err)
	}
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer netc.Close()
	r := wire.NewReader(netc, 0)
	w := wire.NewWriter(netc)
	// send flushes msgs and reads replies through the one named by until.
	send := func(until wire.Op, msgs ...wire.Msg) []wire.Msg {
		t.Helper()
		for _, m := range msgs {
			w.WriteMsg(m)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		var got []wire.Msg
		for {
			op, payload, err := r.ReadFrame()
			if err != nil {
				t.Fatal(err)
			}
			m, err := wire.Decode(op, payload)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, m)
			if op == until {
				return got
			}
		}
	}
	var key *wire.BackendKeyData
	for _, m := range send(wire.OpReady, &wire.Startup{Version: wire.Version}) {
		if k, ok := m.(*wire.BackendKeyData); ok {
			key = k
		}
	}
	send(wire.OpReady, &wire.Parse{SQL: `SELECT id FROM n`}, &wire.Bind{}, &wire.Sync{})
	send(wire.OpSuspended, &wire.Execute{MaxRows: 2})

	side, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	sw := wire.NewWriter(side)
	sw.WriteMsg(&wire.Cancel{ConnID: key.ConnID, Secret: key.Secret})
	sw.Flush()
	if _, _, err := wire.NewReader(side, 0).ReadFrame(); err == nil {
		t.Fatal("cancel connection answered instead of closing")
	}
	side.Close()

	send(wire.OpReady, &wire.Sync{})
	for _, m := range send(wire.OpReady, &wire.Execute{MaxRows: 2}, &wire.Sync{}) {
		switch m := m.(type) {
		case *wire.Error:
			if m.Code != wire.CodeCanceled {
				t.Fatalf("resumed portal failed with %s, want CANCELED", m.Code)
			}
			return
		case *wire.DataBatch:
			t.Fatalf("resumed portal streamed %d more rows after Cancel", len(m.Rows))
		}
	}
	t.Fatal("resumed portal ended without CANCELED")
}

func asClientError(err error, target **client.Error) bool {
	return errors.As(err, target)
}

// TestOversizedFrame sends a frame above the server's limit: the payload
// must be discarded, answered with a clean TOO_LARGE error, and the
// connection must keep working.
func TestOversizedFrame(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxFrame: 64 << 10})
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer netc.Close()
	r := wire.NewReader(netc, 0)
	w := wire.NewWriter(netc)
	w.WriteMsg(&wire.Startup{Version: wire.Version})
	w.Flush()
	for {
		op, _, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op == wire.OpReady {
			break
		}
	}

	w.WriteMsg(&wire.Query{SQL: "SELECT 1 -- " + strings.Repeat("x", 128<<10)})
	w.WriteMsg(&wire.Sync{})
	w.Flush()

	var sawTooLarge bool
	for {
		op, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op == wire.OpError {
			msg, err := wire.Decode(op, payload)
			if err != nil {
				t.Fatal(err)
			}
			if msg.(*wire.Error).Code != wire.CodeTooLarge {
				t.Fatalf("error code = %q, want TOO_LARGE", msg.(*wire.Error).Code)
			}
			sawTooLarge = true
		}
		if op == wire.OpReady {
			break
		}
	}
	if !sawTooLarge {
		t.Fatal("no TOO_LARGE error seen")
	}

	// Same connection still executes statements.
	w.WriteMsg(&wire.Query{SQL: `CREATE TABLE ok (id INT PRIMARY KEY)`})
	w.WriteMsg(&wire.Sync{})
	w.Flush()
	var sawComplete bool
	for {
		op, _, err := r.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if op == wire.OpCommandComplete {
			sawComplete = true
		}
		if op == wire.OpReady {
			break
		}
	}
	if !sawComplete {
		t.Fatal("statement after oversized frame did not complete")
	}
}

// TestVersionNegotiation rejects an unknown protocol major version with an
// explicit error instead of garbage.
func TestVersionNegotiation(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	netc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer netc.Close()
	r := wire.NewReader(netc, 0)
	w := wire.NewWriter(netc)
	w.WriteMsg(&wire.Startup{Version: 0x0002_0000})
	w.Flush()
	op, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if op != wire.OpError {
		t.Fatalf("opcode %q, want Error", byte(op))
	}
	msg, err := wire.Decode(op, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg.(*wire.Error).Message, "protocol version") {
		t.Fatalf("message = %q", msg.(*wire.Error).Message)
	}
}

// TestMonitorSeries checks the server feeds connection and statement
// gauges into the engine monitor.
func TestMonitorSeries(t *testing.T) {
	db, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE g (id INT PRIMARY KEY)`)
	st, err := c.Prepare(`SELECT id FROM g`)
	if err != nil {
		t.Fatal(err)
	}
	if mean := db.Monitor().Mean("server.conns"); mean <= 0 {
		t.Fatalf("server.conns mean = %g, want > 0", mean)
	}
	if mean := db.Monitor().Mean("server.stmts"); mean <= 0 {
		t.Fatalf("server.stmts mean = %g, want > 0", mean)
	}
	st.Close()
	c.Close()
}

// TestGracefulShutdown drains active connections: Shutdown returns once
// clients disconnect and the listener refuses new work.
func TestGracefulShutdown(t *testing.T) {
	db := neurdb.Open(neurdb.DefaultConfig())
	srv := server.New(db, server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, `CREATE TABLE s (id INT PRIMARY KEY)`)

	shutdownDone := make(chan struct{})
	go func() {
		srv.Shutdown(5 * time.Second)
		close(shutdownDone)
	}()

	// The in-flight connection still works during the drain window.
	time.Sleep(20 * time.Millisecond)
	mustExec(t, c, `INSERT INTO s VALUES (1)`)
	c.Close()

	select {
	case <-shutdownDone:
	case <-time.After(4 * time.Second):
		t.Fatal("Shutdown did not return after the client disconnected")
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	if _, err := client.Connect(addr); err == nil {
		t.Fatal("connect succeeded after shutdown")
	}
}
