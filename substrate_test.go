package neurdb

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"neurdb/internal/txn"
)

// seedPlain creates t(id INT PRIMARY KEY, k INT) with n rows (i, i % mod) and
// no index on k.
func seedPlain(t *testing.T, db *DB, n, mod int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, k INT)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%mod)
	}
	mustExec(t, db, sb.String())
}

// TestCreateIndexKeepsRowsInFlight: a transaction that wrote before the index
// existed and commits after it was built must be found through the index — an
// INSERT under its key, a key-changing UPDATE under its new key.
func TestCreateIndexKeepsRowsInFlight(t *testing.T) {
	for _, tc := range []struct {
		name, write string
		key, wantID int64
	}{
		{"insert", `INSERT INTO t VALUES (9999, 9999)`, 9999, 9999},
		{"update", `UPDATE t SET k = 8888 WHERE id = 5`, 8888, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openTest(t)
			seedPlain(t, db, 2000, 2000)
			a := db.NewSession()
			mustSession(t, a, `BEGIN`)
			mustSession(t, a, tc.write)
			mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
			mustSession(t, a, `COMMIT`)
			mustExec(t, db, `ANALYZE`)
			q := fmt.Sprintf(`SELECT id FROM t WHERE k = %d`, tc.key)
			if plan := explainText(t, db, q); !strings.Contains(plan, fmt.Sprintf("IndexScan(t, k=%d)", tc.key)) {
				t.Fatalf("the repro needs the index scan, got:\n%s", plan)
			}
			if got := queryInts(t, db, q); !slices.Equal(got, []int64{tc.wantID}) {
				t.Fatalf("%s returned %v through the index, want [%d]", q, got, tc.wantID)
			}
		})
	}
}

// TestCreateIndexUnderConcurrentWriters builds an index while writers insert
// and commit, insert and roll back, and move rows from key to key — before,
// during and after the build. Afterwards, for every key, the index scan must
// return exactly the rows a scan of the heap finds under it.
func TestCreateIndexUnderConcurrentWriters(t *testing.T) {
	const (
		rows, keys = 2000, 50
		before     = 20  // operations each writer completes before the build starts
		during     = 200 // operations it still has to do when the build starts
	)
	db := openTest(t)
	seedPlain(t, db, rows, keys)

	var ready, done sync.WaitGroup
	writer := func(w int, op func(s *Session, i int) error) {
		ready.Add(1)
		done.Add(1)
		go func() {
			defer done.Done()
			s := db.NewSession()
			defer s.Close()
			for i := 0; i < before+during; i++ {
				if i == before {
					ready.Done()
				}
				if err := op(s, w*100_000+i); err != nil && !errors.Is(err, txn.ErrWriteConflict) {
					t.Errorf("writer %d, operation %d: %v", w, i, err)
					return
				}
			}
		}()
	}
	writer(1, func(s *Session, i int) error { // commits inserts
		_, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, i, i%keys)
		return err
	})
	writer(2, func(s *Session, i int) error { // rolls an insert and a key change back
		if _, err := s.Exec(`BEGIN`); err != nil {
			return err
		}
		_, err := s.Exec(`INSERT INTO t VALUES (?, ?)`, i, i%keys)
		if err == nil {
			_, err = s.Exec(`UPDATE t SET k = ? WHERE id = ?`, (i+7)%keys, i%rows)
		}
		if _, rerr := s.Exec(`ROLLBACK`); rerr != nil {
			return rerr
		}
		return err
	})
	for w := 3; w <= 4; w++ { // move rows between keys, sometimes back where they were
		writer(w, func(s *Session, i int) error {
			_, err := s.Exec(`UPDATE t SET k = ? WHERE id = ?`, (i*7)%keys, (i*13)%rows)
			return err
		})
	}
	ready.Wait()
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	done.Wait()
	mustExec(t, db, `ANALYZE`)

	byKey := map[int64][]int64{}
	for _, row := range mustExec(t, db, `SELECT id, k FROM t`).Rows {
		byKey[row[1].AsInt()] = append(byKey[row[1].AsInt()], row[0].AsInt())
	}
	for k := int64(0); k < keys; k++ {
		q := fmt.Sprintf(`SELECT id FROM t WHERE k = %d`, k)
		if plan := explainText(t, db, q); !strings.Contains(plan, "IndexScan(t, k=") {
			t.Fatalf("the comparison needs the index scan, got:\n%s", plan)
		}
		got, want := queryInts(t, db, q), byKey[k]
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Fatalf("k = %d: index scan finds %d rows, heap scan %d\nindex %v\n heap %v", k, len(got), len(want), got, want)
		}
	}
}

// TestUpdateChecksNotNull: an UPDATE that would store NULL in a NOT NULL
// column fails with INSERT's message and changes nothing, whichever way the
// statement finds its rows.
func TestUpdateChecksNotNull(t *testing.T) {
	const msg = "null value in NOT NULL column t.id"
	for _, tc := range []struct {
		name           string
		rows, workers  int
		setup          string
		update, access string
	}{
		{"seq scan", 300, 1, ``, `UPDATE t SET id = NULL WHERE k = 2`, "SeqScan(t"},
		{"index scan", 2000, 1, ``, `UPDATE t SET id = NULL WHERE id = 2`, "IndexScan(t, id=2)"},
		// 40 pages under 4 workers is the morsel-parallel write path. Only
		// row 4995, on the last page, computes a NULL id (NULL k), so other
		// workers have claimed pages by the time the check fails.
		{"morsel-parallel", 5000, 4, `UPDATE t SET k = NULL WHERE id = 4995`, `UPDATE t SET id = id + k - k WHERE id >= 0`, "SeqScan(t"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openTest(t)
			seedPlain(t, db, tc.rows, 50)
			mustExec(t, db, `ANALYZE`)
			mustExec(t, db, fmt.Sprintf(`SET workers = %d`, tc.workers))
			if tc.workers > 1 {
				n, err := execWritePages(db.session, `UPDATE t SET k = k WHERE id >= 0`)
				if err != nil {
					t.Fatal(err)
				}
				if n == 0 {
					t.Fatal("a whole-table UPDATE did not take the morsel-parallel path")
				}
			}
			if tc.setup != "" {
				mustExec(t, db, tc.setup)
			}
			if plan := explainText(t, db, tc.update); !strings.Contains(plan, tc.access) {
				t.Fatalf("want %s, got:\n%s", tc.access, plan)
			}
			before := fmt.Sprint(mustExec(t, db, `SELECT id, k FROM t`).Rows)
			if _, err := db.Exec(tc.update); err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("%s: error %v, want %q", tc.update, err, msg)
			}
			if after := fmt.Sprint(mustExec(t, db, `SELECT id, k FROM t`).Rows); after != before {
				t.Fatal("the refused UPDATE changed the table")
			}
			if _, err := db.Exec(`INSERT INTO t VALUES (NULL, 1)`); err == nil || !strings.Contains(err.Error(), msg) {
				t.Fatalf("INSERT's message is %v, want %q", err, msg)
			}
		})
	}
}

// TestFailedWriteAbortsOpenTransaction: a write that fails inside BEGIN …
// COMMIT has claimed rows it cannot keep, so the transaction is rolled back
// at once; it answers every further statement with an error until ROLLBACK,
// and COMMIT reports the rollback instead of acknowledging.
func TestFailedWriteAbortsOpenTransaction(t *testing.T) {
	db := openTest(t)
	seedPlain(t, db, 2000, 2000)
	a, b := db.NewSession(), db.NewSession()
	mustSession(t, b, `BEGIN`)
	mustSession(t, b, `UPDATE t SET k = 7 WHERE id = 1500`)
	mustSession(t, a, `BEGIN`)
	if _, err := a.Exec(`UPDATE t SET k = 1`); !errors.Is(err, txn.ErrWriteConflict) {
		t.Fatalf("UPDATE over a row another transaction holds: %v", err)
	}
	// The 1,500 rows it had claimed are free again.
	mustSession(t, b, `UPDATE t SET k = 7 WHERE id = 3`)
	for _, sql := range []string{`SELECT COUNT(*) FROM t`, `UPDATE t SET k = 2 WHERE id = 1`, `INSERT INTO t VALUES (5000, 1)`} {
		if _, err := a.Exec(sql); err == nil || !strings.Contains(err.Error(), "current transaction is aborted") {
			t.Fatalf("%s in the aborted transaction: %v", sql, err)
		}
	}
	if _, err := a.Exec(`COMMIT`); err == nil || !strings.Contains(err.Error(), "current transaction is aborted") {
		t.Fatalf("COMMIT of the aborted transaction: %v", err)
	}
	mustSession(t, b, `COMMIT`)
	if got := queryInts(t, db, `SELECT COUNT(*) FROM t WHERE k = 1`); got[0] != 1 {
		t.Fatalf("%d rows have k = 1; the failed UPDATE's partial work was committed", got[0])
	}

	// ROLLBACK is the other way out, and the session is usable afterwards.
	mustSession(t, a, `BEGIN`)
	mustSession(t, a, `UPDATE t SET k = 2 WHERE id < 10`)
	if _, err := a.Exec(`UPDATE t SET id = NULL WHERE id = 20`); err == nil {
		t.Fatal("NULL into the primary key succeeded")
	}
	mustSession(t, a, `ROLLBACK`)
	if _, err := a.Exec(`ROLLBACK`); err == nil {
		t.Fatal("second ROLLBACK found a transaction")
	}
	mustSession(t, a, `UPDATE t SET k = 3 WHERE id = 0`)
	if got := queryInts(t, db, `SELECT COUNT(*) FROM t WHERE k = 2`); got[0] != 1 {
		t.Fatalf("%d rows have k = 2, want only row 2: the rolled-back UPDATE shows", got[0])
	}
}

// TestDuplicateNamesRefused: an index name a table already has, a column name
// twice in CREATE TABLE and a column twice in an INSERT column list are
// errors, and a refused statement leaves nothing in the WAL.
func TestDuplicateNamesRefused(t *testing.T) {
	db, err := OpenDB(durableConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE t (id INT, k INT)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1)`)
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)
	tbl, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	walBytes := db.wlog.Bytes()
	for _, tc := range []struct{ sql, want string }{
		{`CREATE INDEX t_k ON t (k)`, `index "t_k" already exists`},
		{`CREATE INDEX t_k ON t (id)`, `index "t_k" already exists`},
		{`CREATE TABLE u (id INT, id INT)`, `column "id" specified more than once`},
		{`CREATE TABLE u (id INT, ID TEXT)`, `specified more than once`},
		{`INSERT INTO t (id, id) VALUES (1000, 1001)`, `column "id" specified more than once`},
	} {
		if _, err := db.Exec(tc.sql); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: error %v, want %q", tc.sql, err, tc.want)
		}
	}
	if n := len(tbl.Indexes()); n != 1 {
		t.Fatalf("table has %d indexes, want 1", n)
	}
	if _, err := db.Catalog().Get("u"); err == nil {
		t.Fatal("the refused CREATE TABLE registered a table")
	}
	if got := queryInts(t, db, `SELECT COUNT(*) FROM t`); got[0] != 1 {
		t.Fatalf("%d rows, want 1", got[0])
	}
	if got := db.wlog.Bytes(); got != walBytes {
		t.Fatalf("refused statements grew the WAL from %d to %d bytes", walBytes, got)
	}
}
