package server_test

// Overload-protection and degradation tests over the wire: MaxConns typed
// refusal, client retry backoff, per-statement timeout, idle-connection
// reaping, and read-only degradation surfacing as a typed error code.

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/server"
	"neurdb/internal/vfs"
	"neurdb/internal/wire"
)

// startServerOn boots a wire server over a caller-supplied database, for
// tests that need a non-default engine config (fault injection, timeouts).
func startServerOn(t *testing.T, db *neurdb.DB, cfg server.Config) string {
	t.Helper()
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
	return ln.Addr().String()
}

// queryCount runs a one-value aggregate query and returns the result.
func queryCount(t *testing.T, c *client.Conn, sql string) int64 {
	t.Helper()
	rows, err := c.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("%s: no row (err=%v)", sql, rows.Err())
	}
	var n int64
	if err := rows.Scan(&n); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMaxConnsTypedRefusal(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxConns: 2})

	c1, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c2, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}

	// The third connection gets the typed at-capacity refusal, not a hangup.
	_, err = client.Connect(addr)
	var srvErr *client.Error
	if !errors.As(err, &srvErr) || srvErr.Code != wire.CodeTooManyConns {
		t.Fatalf("over-capacity connect: want %s, got %v", wire.CodeTooManyConns, err)
	}

	// Releasing a slot readmits new clients. The server unregisters the
	// closed connection asynchronously, so ride the client's own backoff
	// instead of racing it.
	if err := c2.Close(); err != nil {
		t.Fatal(err)
	}
	c3, err := client.ConnectOptions(addr, client.Options{
		RetryBackoff:  10 * time.Millisecond,
		RetryAttempts: 8,
	})
	if err != nil {
		t.Fatalf("connect after slot freed: %v", err)
	}
	defer c3.Close()
	mustExec(t, c3, `CREATE TABLE ok (id INT PRIMARY KEY)`)
}

// TestMaxConnsCancelPassthrough verifies Cancel still works when the server
// is saturated — the exact moment a client most needs it.
func TestMaxConnsCancelPassthrough(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxConns: 1})
	c1, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// Cancel dials a second connection; with MaxConns=1 it rides the
	// refusal path, which must pass it through rather than reject it.
	if err := c1.Cancel(); err != nil {
		t.Fatalf("cancel at capacity: %v", err)
	}
}

func TestMaxConnsClientRetryBackoff(t *testing.T) {
	_, addr := startServer(t, server.Config{MaxConns: 1})
	c1, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}

	// Without retry: immediate typed failure.
	if _, err := client.ConnectOptions(addr, client.Options{}); err == nil {
		t.Fatal("expected at-capacity refusal")
	}

	// With retry: the slot frees while the second client is backing off.
	go func() {
		time.Sleep(60 * time.Millisecond)
		c1.Close()
	}()
	c2, err := client.ConnectOptions(addr, client.Options{
		RetryBackoff:  20 * time.Millisecond,
		RetryAttempts: 8,
	})
	if err != nil {
		t.Fatalf("retrying connect never got the freed slot: %v", err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatal(err)
	}
}

func TestStatementTimeoutOverWire(t *testing.T) {
	_, addr := startServer(t, server.Config{})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, c, `INSERT INTO t VALUES (1), (2), (3)`)

	// An expired deadline fails the statement with the typed TIMEOUT code.
	mustExec(t, c, `SET statement_timeout = '1ns'`)
	_, err = c.Exec(`SELECT id FROM t`)
	var srvErr *client.Error
	if !errors.As(err, &srvErr) || srvErr.Code != wire.CodeTimeout {
		t.Fatalf("want %s over the wire, got %v", wire.CodeTimeout, err)
	}

	// The session survives the timeout and SET ... = 0 disables the bound.
	mustExec(t, c, `SET statement_timeout = 0`)
	res := mustExec(t, c, `SELECT id FROM t`)
	if res.Affected != 3 {
		t.Fatalf("after clearing timeout: %d rows", res.Affected)
	}
}

func TestIdleTimeoutSeversConnection(t *testing.T) {
	_, addr := startServer(t, server.Config{IdleTimeout: 100 * time.Millisecond})
	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping on fresh connection: %v", err)
	}
	// Stay well under the deadline across two commands: activity re-arms it.
	time.Sleep(60 * time.Millisecond)
	if err := c.Ping(); err != nil {
		t.Fatalf("ping within idle window: %v", err)
	}
	// Now exceed it: the server reaps the connection.
	time.Sleep(300 * time.Millisecond)
	if err := c.Ping(); err == nil {
		t.Fatal("ping succeeded on a connection the server should have severed")
	}
}

// TestDegradedReadOnlyOverWire drives the degradation story end-to-end over
// TCP: after a WAL fsync failure, remote writes fail with the READ_ONLY
// code, remote reads keep working.
func TestDegradedReadOnlyOverWire(t *testing.T) {
	cfg := neurdb.DefaultConfig()
	cfg.DataDir = t.TempDir()
	ffs := vfs.NewFaultFS(nil)
	cfg.FS = ffs
	db, err := neurdb.OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	addr := startServerOn(t, db, server.Config{})

	c, err := client.Connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mustExec(t, c, `CREATE TABLE kv (id INT PRIMARY KEY, v TEXT)`)
	for i := 0; i < 5; i++ {
		mustExec(t, c, fmt.Sprintf(`INSERT INTO kv VALUES (%d, 'x')`, i))
	}

	ffs.AddFault(vfs.Fault{Op: vfs.OpSync, Path: "wal-"})
	if _, err := c.Exec(`INSERT INTO kv VALUES (100, 'doomed')`); err == nil {
		t.Fatal("commit over failed fsync succeeded")
	}

	// Later writes surface the typed degradation code to remote clients.
	_, err = c.Exec(`INSERT INTO kv VALUES (101, 'rejected')`)
	var srvErr *client.Error
	if !errors.As(err, &srvErr) || srvErr.Code != wire.CodeReadOnly {
		t.Fatalf("degraded write: want %s, got %v", wire.CodeReadOnly, err)
	}
	if !db.Degraded() {
		t.Fatal("engine not degraded")
	}

	// Reads — same connection and a brand-new one — keep serving.
	if n := queryCount(t, c, `SELECT count(*) FROM kv WHERE id < 100`); n != 5 {
		t.Fatalf("degraded read saw %d acked rows, want 5", n)
	}
	c2, err := client.Connect(addr)
	if err != nil {
		t.Fatalf("new connection while degraded: %v", err)
	}
	defer c2.Close()
	if n := queryCount(t, c2, `SELECT count(*) FROM kv WHERE id < 100`); n != 5 {
		t.Fatalf("fresh-connection degraded read saw %d rows", n)
	}
}
