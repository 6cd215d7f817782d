package neurdb

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurdb/internal/executor"
)

// execWritePages runs one autocommit write statement on s the way
// Session.run does, but under an executor.Ctx of its own, and returns how
// many heap pages the morsel-parallel write path processed (0 when the
// statement ran serially).
func execWritePages(s *Session, sql string, args ...any) (int, error) {
	st, err := s.Prepare(sql)
	if err != nil {
		return 0, err
	}
	vals, err := convertArgs(st.nParams, args)
	if err != nil {
		return 0, err
	}
	e, err := st.plan()
	if err != nil {
		return 0, err
	}
	tx, done, err := s.begin()
	if err != nil {
		return 0, err
	}
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers(), Args: vals}
	_, err = executor.Execute(e.node, ctx, s.db.engine)
	return ctx.DMLParallelPages, done(err)
}

// loadParallelTable creates and fills a table large enough (several times
// executor.MorselPages worth of heap pages) for queries over it to take the
// morsel-parallel path.
func loadParallelTable(t testing.TB, db *DB, rows int) {
	t.Helper()
	if _, err := db.Exec(`CREATE TABLE big (id INT PRIMARY KEY, grp INT, val DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	const chunk = 512
	for base := 0; base < rows; base += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO big VALUES ")
		for i := base; i < base+chunk && i < rows; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			// Values are multiples of 0.5: float sums are exact in any
			// addition order, so parallel and serial agg compare equal.
			fmt.Fprintf(&sb, "(%d,%d,%g)", i, i%13, float64(i%200)*0.5)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSessionWorkersDifferential: the same queries through the public API
// must return identical results (row order included) at workers=1 and
// workers=4, driven via Session.SetWorkers and SET workers.
func TestSessionWorkersDifferential(t *testing.T) {
	db := Open(DefaultConfig())
	loadParallelTable(t, db, 12000)

	run := func(workers int, sql string) []string {
		s := db.NewSession()
		s.SetWorkers(workers)
		res, err := s.Exec(sql)
		if err != nil {
			t.Fatalf("workers=%d %q: %v", workers, sql, err)
		}
		out := make([]string, len(res.Rows))
		for i, r := range res.Rows {
			out[i] = r.String()
		}
		return out
	}
	for _, sql := range []string{
		`SELECT grp, COUNT(*), SUM(val) FROM big GROUP BY grp`,
		`SELECT id FROM big WHERE val > 40 ORDER BY val DESC, id LIMIT 100`,
		`SELECT COUNT(*), MIN(val), MAX(val) FROM big WHERE id >= 2000`,
	} {
		serial, par := run(1, sql), run(4, sql)
		if len(serial) != len(par) {
			t.Fatalf("%q: %d vs %d rows", sql, len(serial), len(par))
		}
		for i := range serial {
			if serial[i] != par[i] {
				t.Fatalf("%q row %d: serial %s parallel %s", sql, i, serial[i], par[i])
			}
		}
	}

	// The SQL knob drives the same session override.
	s := db.NewSession()
	if _, err := s.Exec(`SET workers = 4`); err != nil {
		t.Fatal(err)
	}
	if s.effectiveWorkers() != 4 {
		t.Fatalf("SET workers = 4 not applied: %d", s.effectiveWorkers())
	}
	if _, err := s.Exec(`SET workers = nope`); err == nil {
		t.Fatal("SET workers with a non-integer value must error")
	}
}

// TestGroupByNegativeZero: 0.0 and -0.0 are one group, as they are one value
// to = and to the hash join — serially and with the zeros in different
// morsels of a parallel aggregation (5000 rows, past 32 heap pages).
func TestGroupByNegativeZero(t *testing.T) {
	db := Open(DefaultConfig())
	mustExec(t, db, `CREATE TABLE z (id INT, x DOUBLE)`)
	zeros := map[int]string{0: "0.0", 2500: "-0.0", 4900: "0.0 * -1.0"}
	for base := 0; base < 5000; base += 500 {
		vals := make([]string, 0, 500)
		for i := base; i < base+500; i++ {
			x, ok := zeros[i]
			if !ok {
				x = "1.5"
			}
			vals = append(vals, fmt.Sprintf("(%d, %s)", i, x))
		}
		mustExec(t, db, "INSERT INTO z VALUES "+strings.Join(vals, ", "))
	}
	for _, workers := range []int{1, 4} {
		s := db.NewSession()
		s.SetWorkers(workers)
		for sql, want := range map[string]string{
			`SELECT x, COUNT(*) FROM z GROUP BY x`:  "[0, 3 1.5, 4997]",
			`SELECT COUNT(*) FROM z WHERE x = 0.0`:  "[3]",
			`SELECT COUNT(*) FROM z WHERE x = -0.0`: "[3]",
		} {
			res, err := s.Exec(sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprint(res.Rows); got != want {
				t.Errorf("workers=%d %q: got %s, want %s", workers, sql, got, want)
			}
		}
	}
}

// TestRowsCloseStopsParallelWorkers: closing a streaming cursor mid-stream
// must terminate the morsel workers and release the read transaction (the
// vacuum horizon advances past its snapshot).
func TestRowsCloseStopsParallelWorkers(t *testing.T) {
	db := Open(DefaultConfig())
	loadParallelTable(t, db, 12000)
	s := db.NewSession()
	s.SetWorkers(4)

	rows, err := s.Query(`SELECT id, grp, val FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10 && rows.Next(); i++ {
	}
	during := db.mgr.OldestActiveTS()
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	// Close joins the worker pool via the iterator teardown.
	deadline := time.Now().Add(5 * time.Second)
	for executor.ParallelWorkers() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n := executor.ParallelWorkers(); n != 0 {
		t.Fatalf("%d morsel workers still running after Rows.Close", n)
	}
	// The read txn was finalized: a write committed now advances the horizon
	// past the cursor's snapshot.
	if _, err := db.Exec(`UPDATE big SET val = 1 WHERE id = 0`); err != nil {
		t.Fatal(err)
	}
	after := db.mgr.OldestActiveTS()
	if after <= during {
		t.Fatalf("snapshot horizon did not advance after Close: during=%d after=%d", during, after)
	}
}

// TestParallelQueriesUnderConcurrentDML is the -race stress: parallel
// readers iterating aggregates and joins while writers update, delete, and
// insert. Readers must never error and every aggregate row count must be
// consistent with some committed snapshot (at least the unmodified floor).
func TestParallelQueriesUnderConcurrentDML(t *testing.T) {
	db := Open(DefaultConfig())
	loadParallelTable(t, db, 8000)

	stop := make(chan struct{})
	var writerWG, readerWG sync.WaitGroup
	errs := make(chan error, 16)

	writerWG.Add(1)
	go func() { // writer: mixed DML churn
		defer writerWG.Done()
		s := db.NewSession()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			var err error
			switch i % 3 {
			case 0:
				_, err = s.Exec(`UPDATE big SET val = ? WHERE grp = ?`, float64(i%50), i%13)
			case 1:
				_, err = s.Exec(`DELETE FROM big WHERE id = ?`, 4000+i)
			default:
				_, err = s.Exec(`INSERT INTO big VALUES (?, ?, ?)`, 100000+i, i%13, 2.5)
			}
			if err != nil && !strings.Contains(err.Error(), "conflict") {
				errs <- fmt.Errorf("writer: %w", err)
				return
			}
		}
	}()

	for r := 0; r < 3; r++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			s := db.NewSession()
			s.SetWorkers(4)
			for i := 0; i < 30; i++ {
				res, err := s.Exec(`SELECT grp, COUNT(*) FROM big GROUP BY grp`)
				if err != nil {
					errs <- fmt.Errorf("reader agg: %w", err)
					return
				}
				total := int64(0)
				for _, row := range res.Rows {
					total += row[1].AsInt()
				}
				if total < 7000 { // 8000 seeded minus bounded deletes
					errs <- fmt.Errorf("reader saw %d rows total", total)
					return
				}
				if _, err := s.Exec(`SELECT COUNT(*) FROM big WHERE val >= 0`); err != nil {
					errs <- fmt.Errorf("reader filter: %w", err)
					return
				}
			}
		}()
	}

	// Readers run to completion under live write traffic, then the writer
	// is stopped.
	readerWG.Wait()
	close(stop)
	writerWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

// TestParallelDMLNoLostUpdates is the write-path -race stress: mixed
// writers driving morsel-parallel UPDATE statements through the striped
// claim path — disjoint writers that must never conflict, plus contending
// writers that retry on first-updater-wins conflicts — against
// morsel-parallel readers. Every reader snapshot must see statement-atomic
// state (SUM(a) + SUM(b) == 0 holds invariantly), and the final state must
// reflect every committed statement: no lost updates across stripes.
func TestParallelDMLNoLostUpdates(t *testing.T) {
	db := Open(DefaultConfig())
	if _, err := db.Exec(`CREATE TABLE par (id INT PRIMARY KEY, grp INT, a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	const rows = 8000 // ~63 heap pages: well past the parallel-DML gate
	const chunk = 500
	for base := 0; base < rows; base += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO par VALUES ")
		for i := base; i < base+chunk && i < rows; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			// grp 0..3 are the disjoint writers' rows; grp 9 is contested.
			g := i % 4
			if i >= rows-256 {
				g = 9
			}
			fmt.Fprintf(&sb, "(%d,%d,0,0)", i, g)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			t.Fatal(err)
		}
	}

	const disjointWriters = 4
	const itersPerWriter = 6
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	var parallelPages atomic.Int64 // pages the writers sent down the morsel-parallel write path

	// Disjoint writers: each owns grp=w. Their row sets interleave on every
	// heap page, so concurrent statements hammer shared claim stripes, but
	// first-updater-wins must never fire across disjoint rows.
	for w := 0; w < disjointWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			s.SetWorkers(4)
			for i := 0; i < itersPerWriter; i++ {
				n, err := execWritePages(s, `UPDATE par SET a = a + 1, b = b - 1 WHERE grp = ?`, w)
				if err != nil {
					errs <- fmt.Errorf("disjoint writer %d: %w", w, err)
					return
				}
				parallelPages.Add(int64(n))
			}
		}(w)
	}

	// Contending writers: both target grp=9 and must retry through
	// write conflicts; committed statements are counted.
	var contested int64
	var contestedMu sync.Mutex
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			s.SetWorkers(4)
			for i := 0; i < 4; i++ {
				for {
					n, err := execWritePages(s, `UPDATE par SET a = a + 1, b = b - 1 WHERE grp = 9`)
					parallelPages.Add(int64(n))
					if err == nil {
						contestedMu.Lock()
						contested++
						contestedMu.Unlock()
						break
					}
					if !strings.Contains(err.Error(), "conflict") {
						errs <- fmt.Errorf("contending writer: %w", err)
						return
					}
				}
			}
		}()
	}

	// Parallel readers: under any snapshot the per-statement increments
	// cancel, so SUM(a) + SUM(b) must always be exactly zero.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := db.NewSession()
			s.SetWorkers(4)
			for i := 0; i < 25; i++ {
				res, err := s.Exec(`SELECT SUM(a), SUM(b) FROM par`)
				if err != nil {
					errs <- fmt.Errorf("reader: %w", err)
					return
				}
				if sum := res.Rows[0][0].AsInt() + res.Rows[0][1].AsInt(); sum != 0 {
					errs <- fmt.Errorf("non-atomic snapshot: SUM(a)+SUM(b) = %d", sum)
					return
				}
			}
		}()
	}

	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// No lost updates: every disjoint row carries exactly its writer's
	// statement count, every contested row exactly the committed count.
	res, err := db.Exec(`SELECT COUNT(*) FROM par WHERE grp < 9 AND a = ?`, itersPerWriter)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != rows-256 {
		t.Fatalf("disjoint rows with full increment count: %d, want %d", got, rows-256)
	}
	res, err = db.Exec(`SELECT COUNT(*) FROM par WHERE grp = 9 AND a = ?`, contested)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Rows[0][0].AsInt(); got != 256 {
		t.Fatalf("contested rows with committed count %d: %d, want 256", contested, got)
	}
	// The writers rode the morsel-parallel write path.
	if parallelPages.Load() == 0 {
		t.Fatal("no write statement took the morsel-parallel write path")
	}
}

// TestLimitZeroReadsNothing: LIMIT 0 answers without running its input, as
// PostgreSQL does. An ORDER BY … LIMIT 0 over a table past the parallel
// threshold touches no heap page, serially and at four workers.
func TestLimitZeroReadsNothing(t *testing.T) {
	db := Open(DefaultConfig())
	loadParallelTable(t, db, 6000)
	for _, workers := range []int{1, 4} {
		s := db.NewSession()
		s.SetWorkers(workers)
		for _, sql := range []string{
			`SELECT id, val FROM big WHERE grp = 3 ORDER BY val DESC LIMIT 0`,
			`SELECT grp, COUNT(*) FROM big GROUP BY grp LIMIT 0`,
		} {
			hits, misses := db.BufferPool().Stats()
			res, err := s.Exec(sql)
			if err != nil {
				t.Fatalf("workers=%d %q: %v", workers, sql, err)
			}
			h, m := db.BufferPool().Stats()
			if len(res.Rows) != 0 || h+m != hits+misses {
				t.Fatalf("workers=%d %q: %d rows, %d page touches; want none of either",
					workers, sql, len(res.Rows), h+m-hits-misses)
			}
		}
	}
}
