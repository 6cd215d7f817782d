package neurdb

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/vfs/vfstest"
	"neurdb/internal/wal"
)

func durableConfig(dir string) Config {
	cfg := DefaultConfig()
	cfg.DataDir = dir
	return cfg
}

func mustExecArgs(t *testing.T, db *DB, sql string, args ...any) *Result {
	t.Helper()
	res, err := db.Exec(sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return res
}

// queryInts returns the first column of a query as int64s.
func queryInts(t *testing.T, db *DB, sql string) []int64 {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	out := make([]int64, 0, len(res.Rows))
	for _, r := range res.Rows {
		out = append(out, r[0].AsInt())
	}
	return out
}

func TestReopenRecoversData(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE kv (id INT PRIMARY KEY, name TEXT, score DOUBLE)`)
	for i := 0; i < 50; i++ {
		mustExecArgs(t, db, `INSERT INTO kv VALUES (?, ?, ?)`, i, fmt.Sprintf("n%d", i), float64(i)/2)
	}
	mustExec(t, db, `UPDATE kv SET score = 99.5 WHERE id = 7`)
	mustExec(t, db, `DELETE FROM kv WHERE id >= 40`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	ids := queryInts(t, db2, `SELECT id FROM kv ORDER BY id`)
	if len(ids) != 40 || ids[0] != 0 || ids[39] != 39 {
		t.Fatalf("recovered %d rows (%v...)", len(ids), ids[:min(len(ids), 5)])
	}
	res := mustExec(t, db2, `SELECT score FROM kv WHERE id = 7`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsFloat() != 99.5 {
		t.Fatalf("update lost: %+v", res.Rows)
	}
	// New writes after recovery must not collide with recovered state.
	mustExec(t, db2, `INSERT INTO kv VALUES (100, 'post', 1.0)`)
	if n := len(queryInts(t, db2, `SELECT id FROM kv`)); n != 41 {
		t.Fatalf("post-recovery insert: %d rows", n)
	}
}

func TestReopenWithoutClose(t *testing.T) {
	// Abandoning the instance without Close models a crash: under the default
	// commit-sync mode every acknowledged commit is already fsynced.
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < 10; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?)`, i)
	}
	// No Close.

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if n := len(queryInts(t, db2, `SELECT id FROM t`)); n != 10 {
		t.Fatalf("recovered %d rows, want 10", n)
	}
}

func TestDDLRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE keep (id INT PRIMARY KEY, tag TEXT)`)
	mustExec(t, db, `CREATE TABLE gone (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO keep VALUES (1, 'a'), (2, 'b')`)
	mustExec(t, db, `CREATE INDEX keep_tag ON keep (tag)`)
	mustExec(t, db, `DROP TABLE gone`)
	db.Close()

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if _, err := db2.cat.Get("gone"); err == nil {
		t.Fatal("dropped table resurrected")
	}
	tbl, err := db2.cat.Get("keep")
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, ix := range tbl.Indexes() {
		names[ix.Name] = true
	}
	for _, want := range []string{"keep_id", "keep_tag"} {
		if !names[want] {
			t.Fatalf("index %s not recovered (have %v)", want, names)
		}
	}
	// Index contents must be rebuilt, not just definitions.
	res := mustExec(t, db2, `SELECT id FROM keep WHERE tag = 'b'`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 2 {
		t.Fatalf("index lookup after recovery: %+v", res.Rows)
	}
}

// TestRefusedCreateIndexLeavesNoTrace: USING names no method but btree. A
// refused CREATE INDEX registers no index and logs no create-index record,
// so the reopened database has none either.
func TestRefusedCreateIndexLeavesNoTrace(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for _, method := range []string{"gin", "hash", "HASH"} {
		if _, err := db.Exec(`CREATE INDEX t_v ON t (v) USING ` + method); err == nil || !strings.Contains(err.Error(), "indexes are B-trees") {
			t.Fatalf("USING %s: err %v, want the B-tree-only refusal", method, err)
		}
	}
	mustExec(t, db, `CREATE INDEX t_v2 ON t (v) USING btree`)
	indexNames := func(db *DB) string {
		tbl, err := db.cat.Get("t")
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, ix := range tbl.Indexes() {
			names = append(names, ix.Name)
		}
		return fmt.Sprint(names)
	}
	if got := indexNames(db); got != "[t_id t_v2]" {
		t.Fatalf("indexes %s, want [t_id t_v2]", got)
	}
	db.Close()
	var logged []string
	if _, err := wal.ReplaySegments(nil, dir, func(rec *wal.Record) error {
		if rec.Kind == wal.RecCreateIndex {
			logged = append(logged, rec.Name)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(logged) != "[t_v2]" {
		t.Fatalf("create-index records %v, want [t_v2]", logged)
	}
	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if got := indexNames(db2); got != "[t_id t_v2]" {
		t.Fatalf("recovered indexes %s, want [t_id t_v2]", got)
	}
}

// TestRecoverHashIndexesAsBTrees opens testdata/hash-index-datadir, a data
// directory written by commit 3894e1e, the last version with hash indexes:
// table h(id INT PRIMARY KEY, a INT, b INT) of 300 rows, where a and b each
// hold 300 distinct values, with a hash index h_a in the checkpoint image and a
// hash index h_b in a create-index record of the WAL after it. Both recover
// as B-trees the planner uses for points and ranges, with the rows a heap
// scan finds.
func TestRecoverHashIndexesAsBTrees(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join("testdata", "hash-index-datadir"))); err != nil {
		t.Fatal(err)
	}
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db.Close()
	tbl, err := db.cat.Get("h")
	if err != nil {
		t.Fatal(err)
	}
	for col, want := range []string{"h_id", "h_a", "h_b"} {
		ix, keys := tbl.IndexOn(col), 0
		if ix != nil {
			ix.BT.Range(nil, nil, func(rel.Value, []storage.RowID) bool {
				keys++
				return true
			})
		}
		if ix == nil || ix.Name != want || keys != 300 {
			t.Fatalf("column %d: index %+v, want %s over 300 keys", col, ix, want)
		}
	}
	for _, c := range []struct{ where, plan string }{
		{"a = 21", "IndexScan(h, a=21)"},
		{"a >= 20 AND a < 24", "IndexScan(h, a in [20,24]"},
		{"b = 1011", "IndexScan(h, b=1011)"},
		{"b >= 1100 AND b < 1104", "IndexScan(h, b in [1100,1104]"},
	} {
		q := "SELECT id, a, b FROM h WHERE " + c.where
		if plan := explainText(t, db, q); !strings.Contains(plan, c.plan) {
			t.Fatalf("%s: want %s...), got:\n%s", q, c.plan, plan)
		}
		// OR id < 0 adds no row and takes the index out of the plan.
		seq := "SELECT id, a, b FROM h WHERE " + c.where + " OR id < 0"
		if plan := explainText(t, db, seq); !strings.Contains(plan, "SeqScan(h") {
			t.Fatalf("%s: want a SeqScan, got:\n%s", seq, plan)
		}
		got, want := sortedRows(mustExec(t, db, q)), sortedRows(mustExec(t, db, seq))
		if got == "" || got != want {
			t.Errorf("%s: index scan %s, heap scan %s", c.where, got, want)
		}
	}
}

// sortedRows renders a result's rows in sorted order.
func sortedRows(res *Result) string {
	rows := make([]string, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = fmt.Sprint(row)
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

func TestCheckpointBoundsReplay(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	for i := 0; i < 30; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?, 0)`, i)
	}
	mustExec(t, db, `DELETE FROM t WHERE id < 5`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Pre-checkpoint segments must be gone; only the live one remains.
	segs, err := wal.ListSegments(nil, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("after checkpoint: %d segments (err=%v)", len(segs), err)
	}
	// Post-checkpoint commits land in the retained segment.
	mustExec(t, db, `INSERT INTO t VALUES (100, 1)`)
	mustExec(t, db, `UPDATE t SET v = 7 WHERE id = 10`)
	db.Close()

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	ids := queryInts(t, db2, `SELECT id FROM t ORDER BY id`)
	if len(ids) != 26 || ids[0] != 5 || ids[25] != 100 {
		t.Fatalf("recovered ids: %v", ids)
	}
	res := mustExec(t, db2, `SELECT v FROM t WHERE id = 10`)
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != 7 {
		t.Fatalf("post-checkpoint update lost: %+v", res.Rows)
	}

	// A second checkpoint from the recovered instance must also be clean.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after recovery: %v", err)
	}
}

// TestCheckpointCountsNoAbort: a checkpoint's snapshot reader ends like any
// read-only transaction that succeeded, so the manager's abort count does not
// move across a checkpoint.
func TestCheckpointCountsNoAbort(t *testing.T) {
	db, err := OpenDB(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 0)`)
	_, aborts := db.mgr.Stats()
	for i := 0; i < 3; i++ {
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
	}
	if _, after := db.mgr.Stats(); after != aborts {
		t.Fatalf("three checkpoints moved the abort count %d -> %d", aborts, after)
	}
}

// TestAnalyzeCountsNoAbort: ANALYZE reads its tables in a read-only
// transaction that commits, so three of them move the commit count and not
// the abort count.
func TestAnalyzeCountsNoAbort(t *testing.T) {
	db, err := OpenDB(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, v INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 0), (2, 0)`)
	commits, aborts := db.mgr.Stats()
	for i := 0; i < 3; i++ {
		mustExec(t, db, `ANALYZE t`)
	}
	if c, a := db.mgr.Stats(); a != aborts || c != commits+3 {
		t.Fatalf("three ANALYZEs moved (commits, aborts) from (%d, %d) to (%d, %d), want (%d, %d)",
			commits, aborts, c, a, commits+3, aborts)
	}
}

func TestRecoveryIdempotentDoubleReplay(t *testing.T) {
	// Two recoveries in a row (no writes in between) must converge to the
	// same state: replay is pure redo over idempotent installs.
	dir := t.TempDir()
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, db, `DELETE FROM t WHERE id = 2`)
	db.Close()

	for round := 0; round < 2; round++ {
		dbr, err := OpenDB(durableConfig(dir))
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		ids := queryInts(t, dbr, `SELECT id FROM t ORDER BY id`)
		if len(ids) != 2 || ids[0] != 1 || ids[1] != 3 {
			t.Fatalf("round %d: ids %v", round, ids)
		}
		dbr.Close()
	}
}

func TestSyncModesRecover(t *testing.T) {
	for _, mode := range []string{"interval", "off"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := durableConfig(dir)
			cfg.WalSync = mode
			cfg.WalSyncInterval = time.Millisecond
			db, err := OpenDB(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
			for i := 0; i < 20; i++ {
				mustExecArgs(t, db, `INSERT INTO t VALUES (?)`, i)
			}
			// Close flushes the tail in every mode, so a clean shutdown
			// loses nothing even without per-commit fsync.
			db.Close()
			db2, err := OpenDB(cfg)
			if err != nil {
				t.Fatalf("recovery: %v", err)
			}
			defer db2.Close()
			if n := len(queryInts(t, db2, `SELECT id FROM t`)); n != 20 {
				t.Fatalf("recovered %d rows, want 20", n)
			}
		})
	}
}

func TestOpenDBRejectsBadSyncMode(t *testing.T) {
	cfg := durableConfig(t.TempDir())
	cfg.WalSync = "yolo"
	if _, err := OpenDB(cfg); err == nil {
		t.Fatal("bad wal_sync mode must fail OpenDB")
	}
}

func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.CheckpointInterval = 10 * time.Millisecond
	db, err := OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	deadline := time.Now().Add(5 * time.Second)
	for {
		cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
		if len(cks) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer never wrote a checkpoint")
		}
		time.Sleep(5 * time.Millisecond)
	}
	db.Close()
	db2, err := OpenDB(cfg)
	if err != nil {
		t.Fatalf("recovery from background checkpoint: %v", err)
	}
	defer db2.Close()
	if n := len(queryInts(t, db2, `SELECT id FROM t`)); n != 1 {
		t.Fatalf("recovered %d rows, want 1", n)
	}
}

// TestBackgroundCheckpointerRetriesAfterFailure: a checkpoint the background
// loop fails to publish is retried on a later tick, and the instance keeps
// every acked row across the failure and a reopen.
func TestBackgroundCheckpointerRetriesAfterFailure(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpRename, Path: ".ckpt"}) // the first publication only
	cfg := faultConfig(dir, ffs)
	cfg.CheckpointInterval = 10 * time.Millisecond
	db, err := OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	for i := 0; i < 20; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?)`, i)
	}
	// renames counts the checkpoint publications that failed and succeeded.
	renames := func() (failed, published int) {
		for _, r := range ffs.Journal() {
			if r.Op == vfstest.OpRename && strings.HasSuffix(r.Path, ".ckpt") {
				if r.Err != nil {
					failed++
				} else {
					published++
				}
			}
		}
		return failed, published
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		failed, published := renames()
		if failed > 0 && published > 0 {
			break
		}
		if published > 0 {
			t.Fatal("a checkpoint was published before the scripted failure fired")
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer: %d failed and %d published checkpoints, want a retry after the failure", failed, published)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if cks, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt")); len(cks) == 0 {
		t.Fatal("the retried checkpoint is not on disk")
	}
	for i := 20; i < 30; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?)`, i)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer db2.Close()
	if n := len(queryInts(t, db2, `SELECT id FROM t`)); n != 30 {
		t.Fatalf("recovered %d rows, want 30", n)
	}
}

// TestWALStats: DB.WALStats reads the log's own counters — zeros without a
// data directory; one commit per autocommit INSERT and at most one fsync per
// commit under WalSync=commit.
func TestWALStats(t *testing.T) {
	mem := Open(DefaultConfig())
	mustExec(t, mem, `CREATE TABLE t (id INT PRIMARY KEY)`)
	mustExec(t, mem, `INSERT INTO t VALUES (1)`)
	if b, r, c, f := mem.WALStats(); b != 0 || r != 0 || c != 0 || f != 0 {
		t.Fatalf("in-memory WALStats = (%d, %d, %d, %d), want zeros", b, r, c, f)
	}

	cfg := durableConfig(t.TempDir())
	cfg.WalSync = "commit"
	db, err := OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY)`)
	bytes0, _, commits0, fsyncs0 := db.WALStats()
	const n = 12
	for i := 0; i < n; i++ {
		mustExecArgs(t, db, `INSERT INTO t VALUES (?)`, i)
	}
	bytes, _, commits, fsyncs := db.WALStats()
	if commits0 != 0 || commits != n {
		t.Fatalf("commits %d -> %d over %d INSERTs, want 0 -> %d", commits0, commits, n, n)
	}
	if d := fsyncs - fsyncs0; d < 1 || d > n {
		t.Fatalf("%d fsyncs for %d commits, want 1..%d", d, n, n)
	}
	if bytes <= bytes0 {
		t.Fatalf("WAL bytes %d -> %d: INSERTs appended nothing", bytes0, bytes)
	}
}

// --- kill -9 mid-commit-storm differential test -----------------------------
//
// The parent re-execs the test binary as a child process (TestCrashChild)
// pointed at a shared data directory. The child runs a concurrent insert
// storm, journaling "try" before each statement and "ack" after the commit
// is acknowledged, then the parent SIGKILLs it mid-storm, recovers the
// directory in-process, and checks the durability contract differentially:
// every acknowledged commit is recovered, everything recovered was at least
// attempted, and each writer's recovered rows form a prefix of its attempt
// sequence (serial per-writer inserts admit at most one in-flight row).
func TestCrashRecoveryStorm(t *testing.T) {
	dir, tried, acked := crashStorm(t, "insert")

	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer db.Close()
	recovered := map[int64]bool{}
	for _, id := range queryInts(t, db, `SELECT id FROM storm`) {
		if recovered[id] {
			t.Fatalf("row %d recovered twice", id)
		}
		recovered[id] = true
	}

	// No acknowledged commit may be lost.
	for id := range acked {
		if !recovered[id] {
			t.Fatalf("acked row %d lost (acked=%d recovered=%d)", id, len(acked), len(recovered))
		}
	}
	// Nothing may appear out of thin air.
	for id := range recovered {
		if !tried[id] {
			t.Fatalf("recovered row %d was never attempted", id)
		}
	}
	// Per-writer prefix: writer w inserts w*1e6+0, +1, ... serially, so the
	// recovered rows for w must be a gapless prefix of its sequence.
	maxSeq := map[int64]int64{}
	for id := range recovered {
		w, seq := id/1_000_000, id%1_000_000
		if seq > maxSeq[w] {
			maxSeq[w] = seq
		}
	}
	for w, m := range maxSeq {
		for seq := int64(0); seq <= m; seq++ {
			if !recovered[w*1_000_000+seq] {
				t.Fatalf("writer %d: row %d missing below recovered max %d (non-prefix recovery)", w, seq, m)
			}
		}
	}
	t.Logf("storm verified: %d tried, %d acked, %d recovered", len(tried), len(acked), len(recovered))
}

// crashStorm re-execs the test binary as TestCrashChild in the given mode
// against a fresh data directory, SIGKILLs it once 200 commits were
// acknowledged, and returns the directory with the journal's tried and acked
// sets.
func crashStorm(t *testing.T, mode string) (dir string, tried, acked map[int64]bool) {
	t.Helper()
	if os.Getenv("NEURDB_CRASH_CHILD") != "" {
		t.Skip("child entrypoint")
	}
	if testing.Short() {
		t.Skip("crash storm needs a subprocess")
	}
	dir = t.TempDir()
	journal := filepath.Join(dir, "journal.txt")

	cmd := exec.Command(os.Args[0], "-test.run", "TestCrashChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"NEURDB_CRASH_CHILD="+mode,
		"NEURDB_CRASH_DIR="+dir,
		"NEURDB_CRASH_JOURNAL="+journal,
	)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// Let the storm run until a healthy number of commits were acknowledged.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if acks := countJournal(journal, "ack "); acks >= 200 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatalf("child never reached 200 acks (journal: %d lines)", countJournal(journal, ""))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait() // reap; exit status is meaningless after SIGKILL

	tried, acked = readJournal(t, journal)
	if len(acked) == 0 {
		t.Fatal("no acknowledged commits to verify")
	}
	return dir, tried, acked
}

// TestCrashRecoveryIndexedUpdates is the storm with point updates in place
// of inserts: each writer owns one pre-loaded row and sets its counter to 1,
// 2, 3, ... through UPDATE ... WHERE id = ?, which finds the row through the
// primary-key index. After the SIGKILL every writer's recovered counter must
// be at least its last acknowledged value and at most its last attempted
// one, and the recovered index must still lead to exactly one row per key.
func TestCrashRecoveryIndexedUpdates(t *testing.T) {
	dir, tried, acked := crashStorm(t, "update")

	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer db.Close()
	last := func(set map[int64]bool, w int64) int64 {
		var m int64
		for id := range set {
			if id/1_000_000 == w && id%1_000_000 > m {
				m = id % 1_000_000
			}
		}
		return m
	}
	if plan := explainText(t, db, `SELECT n FROM counters WHERE id = 3`); !strings.Contains(plan, "IndexScan") {
		t.Fatalf("recovered point read does not use the index:\n%s", plan)
	}
	for w := int64(0); w < crashWriters; w++ {
		got := queryInts(t, db, fmt.Sprintf(`SELECT n FROM counters WHERE id = %d`, crashRowOf(w)))
		if len(got) != 1 {
			t.Fatalf("writer %d: recovered index returns %v for its row", w, got)
		}
		if lo, hi := last(acked, w), last(tried, w); got[0] < lo || got[0] > hi {
			t.Fatalf("writer %d: recovered counter %d outside [last acked %d, last tried %d]", w, got[0], lo, hi)
		}
	}
	if n := queryInts(t, db, `SELECT COUNT(*) FROM counters`); n[0] != crashCounterRows {
		t.Fatalf("counters holds %d rows, want %d", n[0], crashCounterRows)
	}
	t.Logf("update storm verified: %d tried, %d acked", len(tried), len(acked))
}

// The update storm's table: enough rows that the optimizer prefers the
// index, with each writer's row on a different heap page.
const (
	crashWriters     = 4
	crashCounterRows = 2000
)

func crashRowOf(w int64) int64 { return w*400 + 3 }

// TestCrashChild is the subprocess body for the crash storms; it runs
// only when re-execed with the environment set, and is killed by the parent.
func TestCrashChild(t *testing.T) {
	if os.Getenv("NEURDB_CRASH_CHILD") == "" {
		t.Skip("not a crash child")
	}
	dir := os.Getenv("NEURDB_CRASH_DIR")
	jpath := os.Getenv("NEURDB_CRASH_JOURNAL")
	db, err := OpenDB(durableConfig(dir))
	if err != nil {
		t.Fatalf("child open: %v", err)
	}
	jf, err := os.OpenFile(jpath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var jmu = make(chan struct{}, 1)
	jmu <- struct{}{}
	journal := func(line string) {
		<-jmu
		// O_APPEND writes survive SIGKILL (the page cache outlives the
		// process); only unwritten application buffers are lost, so write
		// the line in one syscall with no buffering.
		jf.WriteString(line)
		jmu <- struct{}{}
	}

	// stmt runs writer w's seq-th statement; journal ids are w*1e6+seq.
	var stmt func(s *Session, w, seq int64) error
	firstSeq := int64(0)
	if os.Getenv("NEURDB_CRASH_CHILD") == "update" {
		mustExec(t, db, `CREATE TABLE counters (id INT PRIMARY KEY, n INT)`)
		var sb strings.Builder
		sb.WriteString("INSERT INTO counters VALUES ")
		for i := 0; i < crashCounterRows; i++ {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, 0)", i)
		}
		mustExec(t, db, sb.String())
		mustExec(t, db, `ANALYZE counters`)
		firstSeq = 1 // the loaded counters hold 0
		stmt = func(s *Session, w, seq int64) error {
			res, err := s.Exec(`UPDATE counters SET n = ? WHERE id = ?`, seq, crashRowOf(w))
			if err == nil && res.Affected != 1 {
				err = fmt.Errorf("update affected %d rows", res.Affected)
			}
			return err
		}
	} else {
		mustExec(t, db, `CREATE TABLE storm (id INT PRIMARY KEY, payload TEXT)`)
		stmt = func(s *Session, w, seq int64) error {
			_, err := s.Exec(`INSERT INTO storm VALUES (?, ?)`, w*1_000_000+seq, strings.Repeat("x", 64))
			return err
		}
	}

	for w := int64(0); w < crashWriters; w++ {
		go func(w int64) {
			s := db.NewSession()
			for seq := firstSeq; ; seq++ {
				id := w*1_000_000 + seq
				journal(fmt.Sprintf("try %d\n", id))
				if err := stmt(s, w, seq); err != nil {
					return
				}
				journal(fmt.Sprintf("ack %d\n", id))
			}
		}(w)
	}
	time.Sleep(60 * time.Second) // parent SIGKILLs long before this
}

func countJournal(path, prefix string) int {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if prefix == "" || strings.HasPrefix(sc.Text(), prefix) {
			n++
		}
	}
	return n
}

func readJournal(t *testing.T, path string) (tried, acked map[int64]bool) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tried, acked = map[int64]bool{}, map[int64]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var id int64
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "try "):
			fmt.Sscanf(line, "try %d", &id)
			tried[id] = true
		case strings.HasPrefix(line, "ack "):
			fmt.Sscanf(line, "ack %d", &id)
			acked[id] = true
		}
	}
	return tried, acked
}
