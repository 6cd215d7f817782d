package neurdb

// Degradation-path tests: WAL poison turning the instance read-only,
// statement timeouts, and crash-point recovery — all driven deterministically
// through Config.FS with a scripted vfstest.FaultFS.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"neurdb/internal/vfs/vfstest"
)

// faultConfig is a durable config writing through the given FaultFS.
func faultConfig(dir string, ffs *vfstest.FaultFS) Config {
	cfg := DefaultConfig()
	cfg.DataDir = dir
	cfg.FS = ffs
	return cfg
}

// TestDegradedReadOnlyAfterFsyncFailure exercises the full degradation
// story: a failed WAL fsync poisons the log; the failing commit reports the
// raw device error; later writes fail fast with ErrReadOnly; established
// read sessions keep working; Degraded reports it; and Close surfaces the
// original error so the operator learns the tail was not durable.
func TestDegradedReadOnlyAfterFsyncFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(nil)
	db, err := OpenDB(faultConfig(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, name TEXT)`)
	for i := 0; i < 10; i++ {
		mustExecArgs(t, db, `INSERT INTO kv VALUES (?, ?)`, i, fmt.Sprintf("n%d", i))
	}
	sess := db.NewSession()
	defer sess.Close()

	if db.Degraded() {
		t.Fatal("healthy instance reports degraded")
	}

	// The disk dies under the next commit's fsync.
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpSync, Path: "wal-"})
	_, err = db.Exec(`INSERT INTO kv VALUES (100, 'doomed')`)
	if !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("failing commit: want the raw fsync error, got %v", err)
	}

	// Every later write fails fast with the typed degradation error —
	// before touching the WAL at all.
	_, err = db.Exec(`INSERT INTO kv VALUES (101, 'rejected')`)
	if !errors.Is(err, ErrReadOnly) {
		t.Fatalf("post-poison write: want ErrReadOnly, got %v", err)
	}
	if _, err := db.Exec(`UPDATE kv SET name = 'x' WHERE id = 1`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("post-poison update: want ErrReadOnly, got %v", err)
	}
	if _, err := db.Exec(`CREATE TABLE t2 (id INT)`); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("post-poison DDL: want ErrReadOnly, got %v", err)
	}
	if !db.Degraded() {
		t.Fatal("Degraded() = false after WAL poison")
	}

	// Reads — on the established session and fresh ones — keep serving the
	// acked state. (The commit that hit the failed fsync is visible but was
	// never acknowledged; that is the documented group-commit trade: its
	// record precedes any dependent commit in the log, and the instance is
	// read-only from here so nothing new can build on it.)
	for _, q := range []func(string, ...any) (*Result, error){sess.Exec, db.Exec} {
		res, err := q(`SELECT count(*) FROM kv WHERE id < 100`)
		if err != nil {
			t.Fatalf("read while degraded: %v", err)
		}
		if res.Rows[0][0].AsInt() != 10 {
			t.Fatalf("read while degraded saw %d acked rows, want 10", res.Rows[0][0].AsInt())
		}
	}

	// Close hands back the original device error, not a swallowed nil.
	if err := db.Close(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("Close() = %v, want the original fsync error", err)
	}

	// Restart-recovers: a reopen on the real filesystem replays the durable
	// prefix and is writable again. Every acked commit must be present; the
	// unacked one may or may not be (its record reached the OS buffer — a
	// real power loss could go either way, and both are correct).
	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	ids := queryInts(t, db2, `SELECT id FROM kv WHERE id < 100 ORDER BY id`)
	if len(ids) != 10 {
		t.Fatalf("recovered %d acked rows, want 10 (%v)", len(ids), ids)
	}
	if db2.Degraded() {
		t.Fatal("recovered instance still degraded")
	}
	mustExec(t, db2, `INSERT INTO kv VALUES (200, 'alive')`)
}

// hasIndex reports whether table has an index named name.
func hasIndex(t *testing.T, db *DB, table, name string) bool {
	t.Helper()
	tbl, err := db.Catalog().Get(table)
	if err != nil {
		t.Fatal(err)
	}
	for _, ix := range tbl.Indexes() {
		if ix.Name == name {
			return true
		}
	}
	return false
}

// TestFailedWALAppendPoisons is the regression test for a write error in a
// WAL append: it left the log's buffered writer failing for good while only
// a failed fsync poisoned the log, so the instance never reported itself
// degraded and every later write failed with the raw I/O error — DDL after
// changing the catalog. One INSERT of 400 rows of ~1 KB makes a record
// larger than the log's 256 KiB buffer, which goes straight to the file and
// meets the fault.
func TestFailedWALAppendPoisons(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(nil)
	db, err := OpenDB(faultConfig(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, name TEXT)`)
	mustExec(t, db, `CREATE TABLE b (id INT, k INT)`)
	mustExec(t, db, `INSERT INTO kv VALUES (1, 'acked')`)

	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: "wal-"})
	var sb strings.Builder
	sb.WriteString(`INSERT INTO kv VALUES `)
	for i := 0; i < 400; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, '%s')", 100+i, strings.Repeat("x", 1000))
	}
	if _, err := db.Exec(sb.String()); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("failing append: want the raw write error, got %v", err)
	}
	if !db.Degraded() {
		t.Fatal("Degraded() = false after a failed WAL append")
	}
	for _, sql := range []string{
		`INSERT INTO kv VALUES (2, 'rejected')`,
		`DROP TABLE b`,
		`CREATE INDEX b_k ON b (k)`,
		`CREATE TABLE c (id INT)`,
	} {
		if _, err := db.Exec(sql); !errors.Is(err, ErrReadOnly) {
			t.Fatalf("%s after the failed append: want ErrReadOnly, got %v", sql, err)
		}
	}
	if _, err := db.Catalog().Get("b"); err != nil {
		t.Fatalf("the refused DROP TABLE dropped b: %v", err)
	}
	if hasIndex(t, db, "b", "b_k") {
		t.Fatal("the refused CREATE INDEX left its index registered")
	}
	if ids := queryInts(t, db, `SELECT id FROM kv`); len(ids) != 1 {
		t.Fatalf("read while degraded saw ids %v, want the one acked row", ids)
	}
	if err := db.Close(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("Close() = %v, want the original write error", err)
	}

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if ids := queryInts(t, db2, `SELECT id FROM kv`); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("recovered ids %v, want [1]", ids)
	}
	mustExec(t, db2, `DROP TABLE b`)
}

// fillWALBuffer commits one INSERT that leaves fewer than room bytes free in
// the log's 256 KiB write buffer. With WalSync = off nothing flushes the
// buffer before it is full, so the next record longer than room spills it:
// that record's append makes the log's next write.
func fillWALBuffer(t *testing.T, db *DB, room int) {
	t.Helper()
	const buffer = 256 << 10
	mustExec(t, db, `CREATE TABLE filler (id INT, s TEXT)`)
	before, _, _, _ := db.WALStats()
	mustExecArgs(t, db, `INSERT INTO filler VALUES (1, ?)`, strings.Repeat("x", 20_000))
	after, _, _, _ := db.WALStats()
	overhead := int(after-before) - 20_000
	mustExecArgs(t, db, `INSERT INTO filler VALUES (2, ?)`, strings.Repeat("x", buffer-int(after)-overhead-room/2))
	if filled, _, _, _ := db.WALStats(); filled > buffer || buffer-filled >= uint64(room) {
		t.Fatalf("the log holds %d bytes, want %d minus fewer than %d", filled, buffer, room)
	}
}

// TestFailedDDLAppendChangesNothing is the regression test for DDL whose own
// WAL append fails: the statement must leave memory as it found it, as the
// log does. DROP TABLE used to leave the table dropped and CREATE INDEX the
// index registered. Each statement's record is the append that spills the
// log's buffer into a failing write.
func TestFailedDDLAppendChangesNothing(t *testing.T) {
	long := strings.Repeat("v", 100) // every record below is longer than fillWALBuffer's room
	tableGone := func(t *testing.T, db *DB) {
		if _, err := db.Catalog().Get("t_" + long); err == nil {
			t.Fatal("the table exists")
		}
	}
	tableKept := func(t *testing.T, db *DB) {
		if ids := queryInts(t, db, `SELECT id FROM t_`+long); len(ids) != 1 {
			t.Fatalf("the table holds ids %v, want its one row", ids)
		}
	}
	for _, c := range []struct {
		name, setup, stmt string
		check             func(t *testing.T, db *DB)
	}{
		{"create table", "", `CREATE TABLE t_` + long + ` (id INT)`, tableGone},
		{"drop table", `CREATE TABLE t_` + long + ` (id INT)`, `DROP TABLE t_` + long, tableKept},
		{"drop table if exists", `CREATE TABLE t_` + long + ` (id INT)`, `DROP TABLE IF EXISTS t_` + long, tableKept},
		{"create index", `CREATE TABLE t_` + long + ` (id INT)`, `CREATE INDEX ix_` + long + ` ON t_` + long + ` (id)`, func(t *testing.T, db *DB) {
			if hasIndex(t, db, "t_"+long, "ix_"+long) {
				t.Fatal("the index is registered")
			}
			tableKept(t, db)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ffs := vfstest.NewFaultFS(nil)
			cfg := faultConfig(t.TempDir(), ffs)
			cfg.WalSync = "off"
			db, err := OpenDB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close() // the poisoned log's Close reports the write error
			if c.setup != "" {
				mustExec(t, db, c.setup)
				mustExec(t, db, `INSERT INTO t_`+long+` VALUES (1)`)
			}
			fillWALBuffer(t, db, 64)
			ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: "wal-"})
			if _, err := db.Exec(c.stmt); !errors.Is(err, vfstest.ErrIO) {
				t.Fatalf("%s: want the write error, got %v", c.stmt, err)
			}
			c.check(t, db)
			if !db.Degraded() {
				t.Fatal("Degraded() = false after a failed DDL append")
			}
		})
	}
}

// TestCrashPointAckedInRecovered runs an insert storm into a FaultFS with a
// scripted crash-point mid-stream, then recovers on the real filesystem and
// checks the crashtest invariant: every acknowledged insert is present.
func TestCrashPointAckedInRecovered(t *testing.T) {
	for _, crashNth := range []int{5, 12, 30} {
		dir := t.TempDir()
		ffs := vfstest.NewFaultFS(nil)
		db, err := OpenDB(faultConfig(dir, ffs))
		if err != nil {
			t.Fatal(err)
		}
		mustExec(t, db, `CREATE TABLE s (id INT PRIMARY KEY, v TEXT)`)
		// Power fails at the crashNth-th WAL write after setup, tearing it
		// after a few bytes; everything mutating after that freezes.
		ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: "wal-", Nth: crashNth, Err: vfstest.ErrNoSpace, Short: 5, Crash: true})

		var acked []int
		for i := 0; i < 200; i++ {
			if _, err := db.Exec(`INSERT INTO s VALUES (?, ?)`, i, fmt.Sprintf("v%d", i)); err != nil {
				break
			}
			acked = append(acked, i)
		}
		if !ffs.Crashed() {
			t.Fatalf("crashNth=%d: crash point never fired", crashNth)
		}
		_ = db.Close()

		db2, err := OpenDB(durableConfig(dir))
		if err != nil {
			t.Fatalf("crashNth=%d: recovery: %v", crashNth, err)
		}
		recovered := make(map[int64]bool)
		for _, id := range queryInts(t, db2, `SELECT id FROM s`) {
			recovered[id] = true
		}
		for _, id := range acked {
			if !recovered[int64(id)] {
				t.Fatalf("crashNth=%d: acked insert %d lost (%d acked, %d recovered)",
					crashNth, id, len(acked), len(recovered))
			}
		}
		db2.Close()
	}
}

// TestCheckpointFailureOldStateWins forces checkpoint publication to fail at
// the rename and verifies recovery still sees every commit: the stale
// checkpoint plus the retained WAL segments.
func TestCheckpointFailureOldStateWins(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(nil)
	db, err := OpenDB(faultConfig(dir, ffs))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE c (id INT PRIMARY KEY)`)
	for i := 0; i < 20; i++ {
		mustExecArgs(t, db, `INSERT INTO c VALUES (?)`, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("healthy checkpoint: %v", err)
	}
	for i := 20; i < 40; i++ {
		mustExecArgs(t, db, `INSERT INTO c VALUES (?)`, i)
	}
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpRename, Path: ".ckpt"})
	if err := db.Checkpoint(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("checkpoint under rename fault: got %v", err)
	}
	// The failed checkpoint must not have truncated the WAL or clobbered
	// the old image: a post-failure commit and all 40 rows survive reopen.
	mustExec(t, db, `INSERT INTO c VALUES (100)`)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if n := len(queryInts(t, db2, `SELECT id FROM c`)); n != 41 {
		t.Fatalf("recovered %d rows, want 41", n)
	}
}

// TestStatementTimeoutSession checks the per-session override: an
// already-expired deadline fails the cursor at its first batch pull with the
// typed error, and resetting to 0 disables it again.
func TestStatementTimeoutSession(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)

	sess := db.NewSession()
	defer sess.Close()
	sess.SetStatementTimeout(time.Nanosecond)
	rows, err := sess.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("want ErrStatementTimeout, got %v", err)
	}
	rows.Close()

	// SET statement_timeout = 0 disables the bound even when Config sets one.
	if _, err := sess.Exec(`SET statement_timeout = 0`); err != nil {
		t.Fatal(err)
	}
	res, err := sess.Exec(`SELECT id FROM t`)
	if err != nil || len(res.Rows) != 3 {
		t.Fatalf("timeout not cleared: res=%+v err=%v", res, err)
	}
}

// TestStatementTimeoutSetParsing covers the SET statement_timeout forms:
// bare integers are milliseconds, duration strings work, negatives are
// rejected.
func TestStatementTimeoutSetParsing(t *testing.T) {
	db := Open(DefaultConfig())
	defer db.Close()
	sess := db.NewSession()
	defer sess.Close()
	for _, q := range []string{
		`SET statement_timeout = 250`,
		`SET statement_timeout = '1500ms'`,
		`SET statement_timeout = '2s'`,
		`SET statement_timeout = 0`,
	} {
		if _, err := sess.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if _, err := sess.Exec(`SET statement_timeout = -5`); err == nil {
		t.Fatal("negative statement_timeout accepted")
	}
	if _, err := sess.Exec(`SET statement_timeout = 'bogus'`); err == nil {
		t.Fatal("malformed statement_timeout accepted")
	}
}

// TestStatementTimeoutConfigDefault checks Config.StatementTimeout applies
// to sessions that never call SET.
func TestStatementTimeoutConfigDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.StatementTimeout = time.Nanosecond
	db := Open(cfg)
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		// DML is bounded at batch granularity too, but a single-row insert
		// completes before the first deadline check — it must not fail.
		t.Fatalf("insert under tiny timeout: %v", err)
	}
	sess := db.NewSession()
	defer sess.Close()
	rows, err := sess.Query(`SELECT id FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Err(); !errors.Is(err, ErrStatementTimeout) {
		t.Fatalf("config default timeout not applied: %v", err)
	}
	rows.Close()
}
