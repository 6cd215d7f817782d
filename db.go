// Package neurdb is an AI-powered autonomous database engine — a from-
// scratch Go reproduction of "NeurDB: On the Design and Implementation of
// an AI-powered Autonomous Database" (CIDR 2025).
//
// The engine combines a relational core (MVCC snapshot isolation,
// heap storage with a buffer pool, B-tree indexes, a cost-based optimizer
// and a vectorized, morsel-parallel executor) with the paper's in-database
// AI ecosystem: AI operators in the executor (train / inference /
// fine-tune), an AI engine whose streaming data loader feeds each PREDICT's
// one task, and a layered model store with incremental updates. Statements
// are planned by the cost-based optimizer on live statistics; the paper's
// fast-adaptive learned query optimizer lives in the Fig. 8 harness
// (internal/bench/learnedopt), not on the request path.
//
// Quick start:
//
//	db := neurdb.Open(neurdb.DefaultConfig())
//	db.Exec(`CREATE TABLE review (id INT PRIMARY KEY, brand TEXT, score DOUBLE)`)
//
//	ins, _ := db.Prepare(`INSERT INTO review VALUES (?, ?, ?)`) // planned once
//	ins.Exec(1, "acme", 4.5)
//
//	rows, _ := db.Query(`SELECT brand, score FROM review WHERE score >= ?`, 4.0)
//	defer rows.Close()
//	for rows.Next() { // streams one executor batch at a time
//		var brand string
//		var score float64
//		rows.Scan(&brand, &score)
//	}
//
//	res, err := db.Exec(`PREDICT VALUE OF score FROM review TRAIN ON *`)
package neurdb

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurdb/internal/aiengine"
	"neurdb/internal/catalog"
	"neurdb/internal/executor"
	"neurdb/internal/index"
	"neurdb/internal/models"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
	"neurdb/internal/vfs"
	"neurdb/internal/wal"
)

// ErrReadOnly reports that the database has degraded to read-only because
// its write-ahead log poisoned (a failed fsync). Reads keep serving; every
// write statement and commit fails with an error wrapping this sentinel
// until the process is restarted and recovery replays the durable prefix.
// It aliases txn.ErrReadOnly so errors.Is matches across layers.
var ErrReadOnly = txn.ErrReadOnly

// errTxnAborted answers every statement but ROLLBACK once a failed write or
// PREDICT has rolled the session's open transaction back.
var errTxnAborted = errors.New("neurdb: current transaction is aborted")

// ErrStatementTimeout reports that a statement exceeded the configured
// statement timeout (Config.StatementTimeout / SET statement_timeout) and
// was stopped at a batch boundary.
var ErrStatementTimeout = errors.New("statement timeout exceeded")

// Config parameterizes Open.
type Config struct {
	// BufferPoolPages bounds the page cache accounting.
	BufferPoolPages int
	// Workers caps intra-query parallelism: morsel-driven operators fan out
	// to at most this many goroutines per query. 0 (the default) resolves
	// to GOMAXPROCS at query time; 1 forces serial execution. Sessions can
	// override it (Session.SetWorkers, SET workers = n).
	Workers int

	// DataDir enables durability: the write-ahead log and checkpoints live
	// here, and OpenDB replays them on boot. Empty (the default) keeps the
	// instance purely in-memory, exactly as before.
	DataDir string
	// WalSync selects when commits become durable: "commit" (group fsync
	// before every acknowledgment — the default), "interval" (background
	// fsync every WalSyncInterval; a crash may lose that window), or "off"
	// (no fsync; a process crash still loses little, a machine crash loses
	// everything since the last checkpoint).
	WalSync string
	// WalSyncInterval is the background fsync period for WalSync
	// "interval" (default 2ms).
	WalSyncInterval time.Duration
	// CheckpointInterval runs a background checkpoint this often (0
	// disables the background checkpointer; Checkpoint can still be called
	// explicitly).
	CheckpointInterval time.Duration
	// CheckpointWalMB additionally triggers a checkpoint whenever the WAL
	// has grown this many MiB since the last one (0 = no size trigger).
	CheckpointWalMB int
	// FS is the filesystem the durability layer writes through (default
	// vfs.OS). Tests inject a vfstest.FaultFS here to script disk faults.
	FS vfs.FS

	// StatementTimeout bounds each streaming statement's execution time:
	// a cursor that exceeds it fails with ErrStatementTimeout at the next
	// batch boundary (the same granularity as client Cancel). 0 disables.
	// Sessions can override it (SET statement_timeout = '500ms').
	StatementTimeout time.Duration
}

// DefaultConfig returns a sensible configuration.
func DefaultConfig() Config {
	return Config{BufferPoolPages: 4096}
}

// DB is a NeurDB database instance. Its Config is fixed once OpenDB
// returns; per-session settings live on Session.
type DB struct {
	cfg    Config
	pool   *storage.BufferPool
	cat    *catalog.Catalog
	mgr    *txn.Manager
	store  *models.Store
	engine *aiengine.Engine

	// plans caches compiled statements (every planned kind), shared across
	// sessions and invalidated by the catalog version. Prepared statements
	// and ad-hoc Session.Exec/Query share one key space: the SQL text.
	plans *planCache

	// Durability state (nil/zero when Config.DataDir is empty).
	wlog        *wal.Log
	fs          vfs.FS     // filesystem the durability layer writes through
	ckptMu      sync.Mutex // serializes checkpoints
	lastCkptWal atomic.Uint64
	stopCkpt    chan struct{}
	ckptDone    chan struct{}
	closed      atomic.Bool

	session *Session // implicit session for autocommit Exec
}

// Open creates a database instance. It panics if Config.DataDir is set and
// recovery fails; durable callers should prefer OpenDB.
func Open(cfg Config) *DB {
	db, err := OpenDB(cfg)
	if err != nil {
		panic("neurdb: " + err.Error())
	}
	return db
}

// OpenDB creates a database instance, recovering state from
// Config.DataDir's checkpoint and write-ahead log when a data directory is
// configured. With an empty DataDir it never fails.
func OpenDB(cfg Config) (*DB, error) {
	if cfg.BufferPoolPages <= 0 {
		cfg.BufferPoolPages = 4096
	}
	pool := storage.NewBufferPool(cfg.BufferPoolPages)
	store := models.NewStore()
	db := &DB{
		cfg:    cfg,
		pool:   pool,
		cat:    catalog.New(pool),
		mgr:    txn.NewManager(),
		store:  store,
		engine: aiengine.NewEngine(store),
		plans:  newPlanCache(),
	}
	if cfg.DataDir != "" {
		if err := db.openDurable(); err != nil {
			return nil, err
		}
	}
	db.session = db.NewSession()
	return db, nil
}

// Catalog exposes the table registry (read-mostly; used by benchmarks).
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// TxnManager exposes the transaction manager.
func (db *DB) TxnManager() *txn.Manager { return db.mgr }

// AIEngine exposes the in-database AI engine.
func (db *DB) AIEngine() *aiengine.Engine { return db.engine }

// ModelStore exposes the layered model store.
func (db *DB) ModelStore() *models.Store { return db.store }

// BufferPool exposes the buffer pool.
func (db *DB) BufferPool() *storage.BufferPool { return db.pool }

// Degraded reports whether the instance has degraded to read-only because
// the write-ahead log poisoned. The operator story: established reads keep
// working, writes fail with ErrReadOnly, and restarting the process (which
// replays the durable WAL prefix) restores writability. Acked commits are
// never lost; commits in flight when the fsync failed were never acked.
func (db *DB) Degraded() bool {
	return db.writeErr() != nil
}

// writeErr is the write path's fail-stop check: nil while healthy, an
// ErrReadOnly-wrapping error once the WAL has poisoned.
func (db *DB) writeErr() error {
	w := db.wlog
	if w == nil {
		return nil
	}
	perr := w.Err()
	if perr == nil {
		return nil
	}
	return fmt.Errorf("%w (cause: %v)", ErrReadOnly, perr)
}

// Result is the outcome of one statement.
type Result struct {
	Columns  []string
	Rows     []rel.Row
	Affected int
	Message  string
	// Predictions carries PREDICT output (aligned with Rows).
	Predictions []float64
}

// Exec parses and executes one statement with autocommit semantics on the
// implicit session, materializing the full result. Optional args bind '?'
// or '$n' placeholders in the statement.
func (db *DB) Exec(sql string, args ...any) (*Result, error) {
	return db.session.Exec(sql, args...)
}

// Query executes one statement on the implicit session and returns a
// streaming cursor: SELECT results are pulled from the executor one batch
// at a time and the read transaction stays open until Rows.Close. Optional
// args bind '?' or '$n' placeholders.
func (db *DB) Query(sql string, args ...any) (*Rows, error) {
	return db.session.Query(sql, args...)
}

// Session is a connection-like context holding an optional open transaction.
type Session struct {
	db      *DB
	mu      sync.Mutex
	txn     *txn.Txn
	workers int // per-session parallelism override; 0 = inherit DB config
	// stmtTimeout overrides Config.StatementTimeout for this session:
	// 0 = inherit, negative = explicitly disabled (SET statement_timeout=0).
	stmtTimeout time.Duration
}

// NewSession creates an independent session.
func (db *DB) NewSession() *Session { return &Session{db: db} }

// Close releases the session, rolling back any open transaction. It exists
// for connection-scoped owners (the wire server ties one session to each
// client connection and must not leak a BEGIN whose client vanished); the
// session must not be used afterwards. Closing a session with no open
// transaction is a no-op.
func (s *Session) Close() error {
	s.mu.Lock()
	t := s.txn
	s.txn = nil
	s.mu.Unlock()
	if t != nil {
		s.db.mgr.Abort(t)
	}
	return nil
}

// SetWorkers overrides the intra-query parallelism cap for this session
// (0 = inherit the DB configuration, 1 = serial). SET workers = n is the
// SQL form.
func (s *Session) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	s.mu.Lock()
	s.workers = n
	s.mu.Unlock()
}

// SetStatementTimeout overrides the per-statement execution bound for this
// session. d == 0 re-inherits the DB configuration; d < 0 disables the
// timeout outright. SET statement_timeout = '500ms' is the SQL form.
func (s *Session) SetStatementTimeout(d time.Duration) {
	s.mu.Lock()
	s.stmtTimeout = d
	s.mu.Unlock()
}

// effectiveStatementTimeout resolves the statement timeout for one
// execution: session override, then DB config; 0 means no timeout.
func (s *Session) effectiveStatementTimeout() time.Duration {
	s.mu.Lock()
	d := s.stmtTimeout
	s.mu.Unlock()
	if d < 0 {
		return 0
	}
	if d == 0 {
		d = s.db.cfg.StatementTimeout
	}
	if d < 0 {
		d = 0
	}
	return d
}

// effectiveWorkers resolves the parallelism cap for one execution: session
// override, then DB config, then GOMAXPROCS.
func (s *Session) effectiveWorkers() int {
	s.mu.Lock()
	w := s.workers
	s.mu.Unlock()
	if w == 0 {
		w = s.db.cfg.Workers
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Exec parses and executes one statement in this session, materializing the
// full result. Optional args bind '?' or '$n' placeholders.
func (s *Session) Exec(sql string, args ...any) (*Result, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	return st.Exec(args...)
}

// Query executes one statement in this session and returns a streaming
// cursor (see Rows). Optional args bind '?' or '$n' placeholders.
func (s *Session) Query(sql string, args ...any) (*Rows, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// begin returns the session transaction, or a fresh autocommit one plus a
// finalizer. An open transaction that a failed statement rolled back (see
// run) takes no further statement.
func (s *Session) begin() (*txn.Txn, func(error) error, error) {
	s.mu.Lock()
	cur := s.txn
	s.mu.Unlock()
	if cur != nil {
		if cur.Status() == txn.StatusAborted {
			return nil, nil, fmt.Errorf("%w, commands ignored until ROLLBACK", errTxnAborted)
		}
		return cur, func(err error) error { return err }, nil // caller-managed
	}
	t := s.db.mgr.Begin(txn.Snapshot, false)
	return t, func(err error) error {
		if err != nil {
			s.db.mgr.Abort(t)
			return err
		}
		return s.db.mgr.Commit(t)
	}, nil
}

// execStmt is the one statement-kind dispatch, reached by every entry point
// (Exec, Query, Stmt.Exec, Stmt.Query, the wire server's Query
// and Execute). Planned statements all take one road: compile (or revalidate
// the cached plan), then run it with the call's arguments, which the
// executor binds as it compiles each operator; utility statements act
// directly. No default:
// neurdb-lint fails a statement kind of the closed set with no arm here.
func (s *Session) execStmt(st *Stmt, args []rel.Value) (*Rows, error) {
	var res *Result
	var err error
	switch t := st.ast.(type) {
	case *sqlparse.Select, *sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete, *sqlparse.Predict:
		e, err := st.plan()
		if err != nil {
			return nil, err
		}
		return s.run(e, args)
	case *sqlparse.CreateTable:
		res, err = s.execCreateTable(t)
	case *sqlparse.CreateIndex:
		res, err = s.execCreateIndex(t)
	case *sqlparse.DropTable:
		res, err = s.execDropTable(t)
	case *sqlparse.TxnStmt:
		res, err = s.execTxnStmt(t)
	case *sqlparse.Analyze:
		res, err = s.execAnalyze(t)
	case *sqlparse.Explain:
		res, err = s.execExplain(st.sql, t)
	case *sqlparse.SetStmt:
		res, err = s.execSet(t)
	}
	if err != nil {
		return nil, err
	}
	return newStaticRows(res), nil
}

// run executes a compiled statement in the session's open transaction, or in
// an autocommit one of its own. A row-producing plan streams: the cursor
// holds the transaction until it is drained or closed. A write or a PREDICT
// runs to completion here; one that fails has left claims and rows behind,
// so its transaction is rolled back at once — the session's open one too,
// which then refuses every statement until ROLLBACK (COMMIT ends it with an
// error, see execTxnStmt). A write is refused up front on a poisoned WAL — a
// clean ErrReadOnly instead of work doomed to abort at commit, which
// re-checks because the poison can land mid-statement.
func (s *Session) run(e *planEntry, args []rel.Value) (*Rows, error) {
	node := e.node
	if e.writes {
		if err := s.db.writeErr(); err != nil {
			return nil, err
		}
	}
	tx, done, err := s.begin()
	if err != nil {
		return nil, err
	}
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers(), Args: args}
	if e.streams {
		it, err := executor.BuildBatch(node, ctx)
		if err != nil {
			return nil, done(err)
		}
		rows, err := newStreamingRows(e.columns, node.Schema(), it, done)
		if err != nil {
			return nil, err
		}
		if d := s.effectiveStatementTimeout(); d > 0 {
			rows.deadline = time.Now().Add(d)
		}
		return rows, nil
	}
	out, err := executor.Execute(node, ctx, s.db.engine)
	if err != nil {
		s.db.mgr.Abort(tx)
	}
	if err := done(err); err != nil {
		return nil, err
	}
	if out.Predict != nil {
		return newStaticRows(predictResult(node.(*plan.Predict), out.Predict)), nil
	}
	return newStaticRows(&Result{Affected: out.Affected, Message: fmt.Sprintf("%s %d", out.Tag, out.Affected)}), nil
}

func (s *Session) execCreateTable(ct *sqlparse.CreateTable) (*Result, error) {
	if err := s.db.writeErr(); err != nil {
		return nil, err
	}
	cols := make([]rel.Column, len(ct.Cols))
	for i, c := range ct.Cols {
		cols[i] = rel.Column{Name: strings.ToLower(c.Name), Typ: c.Typ, Unique: c.Unique, NotNull: c.NotNull}
	}
	schema := rel.NewSchema(cols...)
	// Under the commit lock the create record is ordered before any commit
	// record touching the new table: a racing insert cannot commit until the
	// table's create record is in the log.
	err := s.db.logDDL(func() ([]byte, func(), error) {
		tbl, err := s.db.cat.Create(ct.Name, schema)
		if err != nil {
			return nil, nil, err
		}
		return wal.EncodeCreateTable(nil, tbl.ID, tbl.Name, schema), func() { _, _ = s.db.cat.Drop(tbl.Name) }, nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{Message: "CREATE TABLE"}, nil
}

func (s *Session) execDropTable(dt *sqlparse.DropTable) (*Result, error) {
	if err := s.db.writeErr(); err != nil {
		return nil, err
	}
	// Under the commit lock no commit is mid-flight, so every commit record
	// on the table precedes the drop record in the log.
	missing := false
	err := s.db.logDDL(func() ([]byte, func(), error) {
		undo, err := s.db.cat.Drop(dt.Name)
		missing = err != nil
		return wal.EncodeDropTable(nil, strings.ToLower(dt.Name)), undo, err
	})
	if missing && dt.IfExists {
		return &Result{Message: "DROP TABLE (skipped)"}, nil
	}
	if err != nil {
		return nil, err
	}
	return &Result{Message: "DROP TABLE"}, nil
}

func (s *Session) execCreateIndex(ci *sqlparse.CreateIndex) (*Result, error) {
	if err := s.db.writeErr(); err != nil {
		return nil, err
	}
	tbl, err := s.db.cat.Get(ci.Table)
	if err != nil {
		return nil, err
	}
	col := tbl.Schema.ColIndex(ci.Col)
	if col < 0 {
		return nil, fmt.Errorf("neurdb: no column %q in %q", ci.Col, ci.Table)
	}
	ix := &catalog.Index{Name: ci.Name, Col: col, BT: index.NewBTree()}
	// Registered first, filled second, planned on last: see Table.AddIndex.
	// The fill runs outside the commit lock, beside writers.
	if err := tbl.AddIndex(ix, func() { fillIndex(tbl.Heap, ix) }); err != nil {
		return nil, err
	}
	// The WAL record is metadata-only (replay rebuilds index contents from
	// heap data), so ordering relative to commits is immaterial; the commit
	// lock only orders it against a concurrent DROP TABLE.
	err = s.db.logDDL(func() ([]byte, func(), error) {
		return wal.EncodeCreateIndex(nil, tbl.ID, ix.Name, col), func() { tbl.DropIndex(ix) }, nil
	})
	// A new access path, or one withdrawn: invalidate cached plans.
	s.db.cat.BumpVersion()
	if err != nil {
		return nil, err
	}
	return &Result{Message: "CREATE INDEX"}, nil
}

// logDDL runs one DDL statement's change under the commit lock and appends
// the record it returns there, so the record is ordered against every commit
// record. If the append fails, undo takes the change back: memory and log
// agree the statement never happened. Like a commit, it returns once the
// record is durable under the sync policy. Without a log it only runs the
// change.
func (db *DB) logDDL(change func() (record []byte, undo func(), err error)) error {
	w := db.wlog
	var lsn uint64
	err := db.mgr.Quiesce(func(uint64) error {
		record, undo, err := change()
		if err != nil || w == nil {
			return err
		}
		if lsn, err = w.AppendDDL(record); err != nil {
			undo()
			return fmt.Errorf("neurdb: wal append: %w", err)
		}
		return nil
	})
	if err != nil || w == nil {
		return err
	}
	return w.Sync(lsn)
}

// PlanSelect builds the physical plan for a SELECT on live statistics,
// bypassing the plan cache (exported for benchmarks).
func (db *DB) PlanSelect(sel *sqlparse.Select) (plan.Node, error) {
	return optimizer.New().PlanStmt(sel, db.cat)
}

func (s *Session) execTxnStmt(t *sqlparse.TxnStmt) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t.Kind {
	case "BEGIN":
		if s.txn != nil {
			return nil, fmt.Errorf("neurdb: transaction already open")
		}
		s.txn = s.db.mgr.Begin(txn.Snapshot, false)
		return &Result{Message: "BEGIN"}, nil
	case "COMMIT":
		if s.txn == nil {
			return nil, fmt.Errorf("neurdb: no open transaction")
		}
		t := s.txn
		s.txn = nil
		if t.Status() == txn.StatusAborted {
			return nil, fmt.Errorf("%w: COMMIT rolled it back", errTxnAborted)
		}
		if err := s.db.mgr.Commit(t); err != nil {
			return nil, err
		}
		return &Result{Message: "COMMIT"}, nil
	default: // ROLLBACK
		if s.txn == nil {
			return nil, fmt.Errorf("neurdb: no open transaction")
		}
		s.db.mgr.Abort(s.txn)
		s.txn = nil
		return &Result{Message: "ROLLBACK"}, nil
	}
}

func (s *Session) execAnalyze(a *sqlparse.Analyze) (*Result, error) {
	var tables []*catalog.Table
	if a.Table != "" {
		t, err := s.db.cat.Get(a.Table)
		if err != nil {
			return nil, err
		}
		tables = []*catalog.Table{t}
	} else {
		tables = s.db.cat.All()
	}
	tx := s.db.mgr.Begin(txn.Snapshot, true)
	defer s.db.mgr.Abort(tx)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat}
	for _, t := range tables {
		rows, err := executor.Run(&plan.SeqScan{Table: t}, ctx)
		if err != nil {
			return nil, err
		}
		t.Stats.Rebuild(rows)
	}
	// Fresh statistics change plan choice: invalidate cached plans.
	s.db.cat.BumpVersion()
	return &Result{Message: fmt.Sprintf("ANALYZE %d tables", len(tables))}, nil
}

// execExplain compiles the inner statement the way executing it would —
// through the plan cache, under its own text — and prints that node.
func (s *Session) execExplain(sql string, ex *sqlparse.Explain) (*Result, error) {
	inner := &Stmt{s: s, sql: strings.TrimSpace(sql[ex.InnerPos:]), ast: ex.Inner}
	e, err := inner.plan()
	if err != nil {
		return nil, err
	}
	res := &Result{Columns: explainSchema.Names()}
	for _, line := range strings.Split(strings.TrimRight(plan.Explain(e.node), "\n"), "\n") {
		res.Rows = append(res.Rows, rel.Row{rel.Text(line)})
	}
	return res, nil
}

func (s *Session) execSet(st *sqlparse.SetStmt) (*Result, error) {
	switch st.Key {
	case "workers":
		n, err := strconv.Atoi(st.Value)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("neurdb: SET workers wants a non-negative integer, got %q", st.Value)
		}
		s.SetWorkers(n)
		return &Result{Message: "SET workers"}, nil
	case "statement_timeout":
		d, err := parseTimeoutValue(st.Value)
		if err != nil {
			return nil, err
		}
		if d == 0 {
			d = -1 // explicit 0 disables, rather than re-inheriting the DB config
		}
		s.SetStatementTimeout(d)
		return &Result{Message: "SET statement_timeout"}, nil
	default:
		return nil, fmt.Errorf("neurdb: unknown setting %q", st.Key)
	}
}

// parseTimeoutValue accepts a Go duration string ("500ms", "2s") or a bare
// non-negative integer interpreted as milliseconds (the PostgreSQL
// statement_timeout convention). 0 disables.
func parseTimeoutValue(v string) (time.Duration, error) {
	v = strings.TrimSpace(strings.Trim(v, `'"`))
	if ms, err := strconv.Atoi(v); err == nil {
		if ms < 0 {
			return 0, fmt.Errorf("neurdb: statement_timeout must be >= 0, got %d", ms)
		}
		return time.Duration(ms) * time.Millisecond, nil
	}
	d, err := time.ParseDuration(v)
	if err != nil || d < 0 {
		return 0, fmt.Errorf("neurdb: statement_timeout wants a duration or integer milliseconds, got %q", v)
	}
	return d, nil
}

// predictResult shapes a PREDICT outcome: one prediction per row (a class is
// thresholded at 0.5).
func predictResult(n *plan.Predict, res *executor.PredictResult) *Result {
	out := &Result{
		Columns:     n.Schema().Names(),
		Predictions: res.Predictions,
		Message: fmt.Sprintf("PREDICT %s OF %s: %d predictions (model MID=%d reused=%v)",
			n.Kind(), n.Table.Schema.Col(n.TargetIdx).Name, len(res.Predictions), res.MID, res.Reused),
	}
	for _, v := range res.Predictions {
		if n.Classification {
			if v >= 0.5 {
				v = 1
			} else {
				v = 0
			}
		}
		out.Rows = append(out.Rows, rel.Row{rel.Float(v)})
	}
	return out
}
