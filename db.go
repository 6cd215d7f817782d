// Package neurdb is an AI-powered autonomous database engine — a from-
// scratch Go reproduction of "NeurDB: On the Design and Implementation of
// an AI-powered Autonomous Database" (CIDR 2025).
//
// The engine combines a relational core (MVCC snapshot isolation + SSI,
// heap storage with a buffer pool, B-tree/hash indexes, a cost-based
// optimizer and a Volcano executor) with the paper's in-database AI
// ecosystem: AI operators in the executor (train / inference / fine-tune),
// an AI engine with a streaming data protocol, a layered model store with
// incremental updates, a monitor that triggers adaptation, and
// fast-adaptive learned components (learned concurrency control and a
// learned query optimizer).
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
	"neurdb/internal/learnedopt"
	"neurdb/internal/models"
	"neurdb/internal/monitor"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/stats"
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

// ErrStatementTimeout reports that a statement exceeded the configured
// statement timeout (Config.StatementTimeout / SET statement_timeout) and
// was stopped at a batch boundary.
var ErrStatementTimeout = errors.New("statement timeout exceeded")

// OptimizerMode selects how SELECT plans are chosen.
type OptimizerMode string

// Optimizer modes. CostMode plans with current statistics; StaleCostMode
// plans with the statistics snapshot taken at the last ANALYZE (the
// "PostgreSQL under drift" behaviour); LearnedMode uses the NeurDB learned
// optimizer over candidate plans with live system conditions.
const (
	CostMode      OptimizerMode = "cost"
	StaleCostMode OptimizerMode = "stale"
	LearnedMode   OptimizerMode = "learned"
)

// Config parameterizes Open.
type Config struct {
	// BufferPoolPages bounds the page cache accounting.
	BufferPoolPages int
	// Serializable runs transactions under SSI instead of snapshot isolation.
	Serializable bool
	// Optimizer selects the planning mode (default CostMode).
	Optimizer OptimizerMode
	// Seed drives all model initialization for reproducibility.
	Seed int64
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
	// NoGroupCommit defeats leader/follower fsync batching so every commit
	// pays its own fsync — the baseline the durability benchmark compares
	// group commit against. Never set it in production.
	NoGroupCommit bool
	// FS is the filesystem the durability layer writes through (default
	// vfs.OS). Tests inject a vfs.FaultFS here to script disk faults.
	FS vfs.FS

	// StatementTimeout bounds each streaming statement's execution time:
	// a cursor that exceeds it fails with ErrStatementTimeout at the next
	// batch boundary (the same granularity as client Cancel). 0 disables.
	// Sessions can override it (SET statement_timeout = '500ms').
	StatementTimeout time.Duration
}

// DefaultConfig returns a sensible configuration.
func DefaultConfig() Config {
	return Config{BufferPoolPages: 4096, Optimizer: CostMode, Seed: 1}
}

// DB is a NeurDB database instance.
type DB struct {
	mu sync.Mutex

	cfg     Config
	pool    *storage.BufferPool
	cat     *catalog.Catalog
	mgr     *txn.Manager
	store   *models.Store
	engine  *aiengine.Engine
	tracker *monitor.Tracker

	// staleStats snapshots per-table statistics at ANALYZE time; the
	// stale-cost planner uses them.
	staleStats map[int]*stats.TableStats

	// learned optimizer state (lazily trained by callers via LearnedQO).
	learnedQO *learnedopt.Model

	// plans caches compiled SELECT plans, shared across sessions and
	// invalidated by the catalog version. Prepared statements and ad-hoc
	// Session.Exec/Query SELECTs share the same (mode, SQL) key space.
	plans *planCache

	// stripeWaitSeen tracks the last txn.stripe_wait counter observed by
	// the monitor, so each write statement reports only its delta.
	stripeWaitSeen atomic.Uint64

	// Durability state (nil/zero when Config.DataDir is empty).
	wlog        *wal.Log
	fs          vfs.FS     // filesystem the durability layer writes through
	ckptMu      sync.Mutex // serializes checkpoints
	lastCkptWal atomic.Uint64
	stopCkpt    chan struct{}
	ckptDone    chan struct{}
	closed      atomic.Bool
	// degradedSeen latches the first observation of WAL poison so the
	// db.degraded gauge flips exactly once.
	degradedSeen atomic.Bool

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
	if cfg.Optimizer == "" {
		cfg.Optimizer = CostMode
	}
	pool := storage.NewBufferPool(cfg.BufferPoolPages)
	store := models.NewStore()
	db := &DB{
		cfg:        cfg,
		pool:       pool,
		cat:        catalog.New(pool),
		mgr:        txn.NewManager(),
		store:      store,
		engine:     aiengine.NewEngine(store),
		tracker:    monitor.NewTracker(),
		staleStats: make(map[int]*stats.TableStats),
		plans:      newPlanCache(DefaultPlanCacheSize),
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

// Monitor exposes the metric tracker.
func (db *DB) Monitor() *monitor.Tracker { return db.tracker }

// Degraded reports whether the instance has degraded to read-only because
// the write-ahead log poisoned. The operator story: established reads keep
// working, writes fail with ErrReadOnly, and restarting the process (which
// replays the durable WAL prefix) restores writability. Acked commits are
// never lost; commits in flight when the fsync failed were never acked.
func (db *DB) Degraded() bool {
	return db.writeErr() != nil
}

// writeErr is the write path's fail-stop check: nil while healthy, an
// ErrReadOnly-wrapping error once the WAL has poisoned. The first failing
// observation flips the db.degraded monitor gauge.
func (db *DB) writeErr() error {
	w := db.wlog
	if w == nil {
		return nil
	}
	perr := w.Err()
	if perr == nil {
		return nil
	}
	if db.degradedSeen.CompareAndSwap(false, true) {
		db.tracker.Observe("db.degraded", 1)
	}
	return fmt.Errorf("%w (cause: %v)", ErrReadOnly, perr)
}

// SetLearnedQO installs a trained learned-optimizer model used by
// LearnedMode planning. Cached plans chosen by the previous model (or the
// cost fallback) are invalidated so prepared statements replan with it.
func (db *DB) SetLearnedQO(m *learnedopt.Model) {
	db.mu.Lock()
	db.learnedQO = m
	db.mu.Unlock()
	db.cat.BumpVersion()
}

// LearnedQO returns the installed learned optimizer (nil if none).
func (db *DB) LearnedQO() *learnedopt.Model {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.learnedQO
}

// SetOptimizerMode switches planning behaviour at runtime.
func (db *DB) SetOptimizerMode(m OptimizerMode) {
	db.mu.Lock()
	db.cfg.Optimizer = m
	db.mu.Unlock()
}

// SetWorkers changes the database-wide intra-query parallelism cap at
// runtime (0 = GOMAXPROCS at query time, 1 = serial). Sessions that called
// Session.SetWorkers keep their override.
func (db *DB) SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	db.mu.Lock()
	db.cfg.Workers = n
	db.mu.Unlock()
}

// OptimizerModeNow returns the active mode.
func (db *DB) OptimizerModeNow() OptimizerMode {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.cfg.Optimizer
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

// ExecScript runs a semicolon-separated script, returning the last result.
// Scripts take no parameters.
func (db *DB) ExecScript(sql string) (*Result, error) {
	stmts, err := sqlparse.ParseScript(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, stmt := range stmts {
		if n := sqlparse.ParamCount(stmt); n > 0 {
			return nil, fmt.Errorf("neurdb: script statement takes %d parameters; use Prepare/Exec with arguments", n)
		}
		last, err = db.session.execStmt(stmt, nil)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
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
		s.db.mu.Lock()
		d = s.db.cfg.StatementTimeout
		s.db.mu.Unlock()
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
		s.db.mu.Lock()
		w = s.db.cfg.Workers
		s.db.mu.Unlock()
	}
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return w
}

// Exec parses and executes one statement in this session, materializing the
// full result. Optional args bind '?' or '$n' placeholders.
func (s *Session) Exec(sql string, args ...any) (*Result, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	vals, err := convertArgs(sqlparse.ParamCount(stmt), args)
	if err != nil {
		return nil, err
	}
	return s.execStmt(stmt, vals)
}

// Query executes one statement in this session and returns a streaming
// cursor (see Rows). Optional args bind '?' or '$n' placeholders.
func (s *Session) Query(sql string, args ...any) (*Rows, error) {
	stmt, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	vals, err := convertArgs(sqlparse.ParamCount(stmt), args)
	if err != nil {
		return nil, err
	}
	return s.queryStmt(stmt, vals)
}

// queryStmt routes a parsed statement to the streaming path: SELECTs stream
// from the executor; everything else executes eagerly and is wrapped as a
// materialized cursor.
func (s *Session) queryStmt(stmt sqlparse.Stmt, args []rel.Value) (*Rows, error) {
	if sel, ok := stmt.(*sqlparse.Select); ok {
		return s.querySelect(sel, args)
	}
	res, err := s.execStmt(stmt, args)
	if err != nil {
		return nil, err
	}
	return newStaticRows(res), nil
}

// querySelect resolves a SELECT through the shared plan cache — ad-hoc
// Session.Exec/Query statements hit the same (optimizer mode, SQL text)
// entries prepared statements populate, so a repeated ad-hoc statement pays
// binding and planning once per catalog version — and opens a streaming
// cursor over the compiled plan.
func (s *Session) querySelect(sel *sqlparse.Select, args []rel.Value) (*Rows, error) {
	if sel.Text == "" {
		// Programmatically built AST with no source text: plan uncached.
		p, err := s.db.PlanSelect(sel)
		if err != nil {
			return nil, err
		}
		return s.streamPlan(p, p.Schema().Names(), len(args) > 0, args)
	}
	e, err := s.db.cachedPlan(sel.Text, sel)
	if err != nil {
		return nil, err
	}
	return s.streamPlan(e.node, e.columns, e.hasParams, args)
}

// streamPlan begins (or joins) the session's read transaction, binds
// parameters into the plan, and opens the batch iterator as a Rows cursor.
// The transaction is finalized by Rows.Close / end of stream.
func (s *Session) streamPlan(p plan.Node, cols []string, hasParams bool, args []rel.Value) (*Rows, error) {
	if hasParams {
		p = plan.BindParams(p, args)
	}
	tx, done := s.begin(true)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers()}
	it, err := executor.BuildBatch(p, ctx)
	if err != nil {
		return nil, done(err)
	}
	rows, err := newStreamingRows(cols, p.Schema(), it, done)
	if err != nil {
		return nil, err
	}
	if d := s.effectiveStatementTimeout(); d > 0 {
		rows.deadline = time.Now().Add(d)
	}
	return rows, nil
}

// level returns the configured isolation level.
func (s *Session) level() txn.IsolationLevel {
	if s.db.cfg.Serializable {
		return txn.Serializable
	}
	return txn.Snapshot
}

// begin returns the session transaction, or a fresh autocommit one plus a
// finalizer.
func (s *Session) begin(readOnly bool) (*txn.Txn, func(error) error) {
	s.mu.Lock()
	cur := s.txn
	s.mu.Unlock()
	if cur != nil {
		return cur, func(err error) error { return err } // caller-managed
	}
	t := s.db.mgr.Begin(s.level(), readOnly)
	return t, func(err error) error {
		if err != nil {
			s.db.mgr.Abort(t)
			return err
		}
		return s.db.mgr.Commit(t)
	}
}

func (s *Session) execStmt(stmt sqlparse.Stmt, args []rel.Value) (*Result, error) {
	switch stmt.(type) {
	case *sqlparse.CreateTable, *sqlparse.CreateIndex, *sqlparse.DropTable,
		*sqlparse.Insert, *sqlparse.Update, *sqlparse.Delete:
		// Fail-stop before doing any work: a poisoned WAL means the write
		// could never be made durable. The commit path re-checks (the poison
		// can land mid-statement), but rejecting here gives writers a clean
		// ErrReadOnly instead of work that is doomed to abort at commit.
		if err := s.db.writeErr(); err != nil {
			return nil, err
		}
	}
	switch t := stmt.(type) {
	case *sqlparse.CreateTable:
		return s.execCreateTable(t)
	case *sqlparse.CreateIndex:
		return s.execCreateIndex(t)
	case *sqlparse.DropTable:
		return s.execDropTable(t)
	case *sqlparse.Insert:
		return s.execInsert(t, args)
	case *sqlparse.Select:
		return s.execSelect(t, args)
	case *sqlparse.Update:
		return s.execUpdate(t, args)
	case *sqlparse.Delete:
		return s.execDelete(t, args)
	case *sqlparse.TxnStmt:
		return s.execTxnStmt(t)
	case *sqlparse.Analyze:
		return s.execAnalyze(t)
	case *sqlparse.Explain:
		return s.execExplain(t)
	case *sqlparse.SetStmt:
		return s.execSet(t)
	case *sqlparse.Predict:
		return s.execPredict(t, args)
	default:
		return nil, fmt.Errorf("neurdb: unsupported statement %T", stmt)
	}
}

func (s *Session) execCreateTable(ct *sqlparse.CreateTable) (*Result, error) {
	cols := make([]rel.Column, len(ct.Cols))
	for i, c := range ct.Cols {
		cols[i] = rel.Column{Name: strings.ToLower(c.Name), Typ: c.Typ, Unique: c.Unique, NotNull: c.NotNull}
	}
	schema := rel.NewSchema(cols...)
	// With a WAL, the create runs under the exclusive commit gate so the DDL
	// record is ordered before any commit record touching the new table: a
	// racing insert cannot draw its timestamp (GateRLock) until the table's
	// create record is in the log.
	w := s.db.wlog
	if w != nil {
		w.GateLock()
	}
	tbl, err := s.db.cat.Create(ct.Name, schema)
	var lsn uint64
	var aerr error
	if err == nil && w != nil {
		lsn, aerr = w.AppendDDL(wal.EncodeCreateTable(nil, tbl.ID, tbl.Name, schema))
	}
	if w != nil {
		w.GateUnlock()
	}
	if err != nil {
		return nil, err
	}
	if aerr != nil {
		// The append never reached the log; undo the in-memory create so
		// both sides agree the table does not exist.
		_ = s.db.cat.Drop(tbl.Name)
		return nil, fmt.Errorf("neurdb: wal append: %w", aerr)
	}
	// Primary-key style columns get a B-tree automatically. Not logged:
	// replay recreates them from the schema's Unique flags.
	for i, c := range cols {
		if c.Unique {
			tbl.AddIndex(&catalog.Index{Name: tbl.Name + "_" + c.Name, Col: i, BT: index.NewBTree()})
		}
	}
	if w != nil {
		if err := w.Sync(lsn); err != nil {
			return nil, err
		}
	}
	return &Result{Message: "CREATE TABLE"}, nil
}

func (s *Session) execDropTable(dt *sqlparse.DropTable) (*Result, error) {
	// Same gate discipline as CREATE TABLE: while the gate is held
	// exclusively no commit is mid-flight, so every commit record on the
	// table precedes the drop record in the log.
	w := s.db.wlog
	if w != nil {
		w.GateLock()
	}
	err := s.db.cat.Drop(dt.Name)
	var lsn uint64
	var aerr error
	if err == nil && w != nil {
		lsn, aerr = w.AppendDDL(wal.EncodeDropTable(nil, strings.ToLower(dt.Name)))
	}
	if w != nil {
		w.GateUnlock()
	}
	if err != nil {
		if dt.IfExists {
			return &Result{Message: "DROP TABLE (skipped)"}, nil
		}
		return nil, err
	}
	if aerr != nil {
		return nil, fmt.Errorf("neurdb: wal append: %w", aerr)
	}
	if w != nil {
		if err := w.Sync(lsn); err != nil {
			return nil, err
		}
	}
	return &Result{Message: "DROP TABLE"}, nil
}

func (s *Session) execCreateIndex(ci *sqlparse.CreateIndex) (*Result, error) {
	tbl, err := s.db.cat.Get(ci.Table)
	if err != nil {
		return nil, err
	}
	col := tbl.Schema.ColIndex(ci.Col)
	if col < 0 {
		return nil, fmt.Errorf("neurdb: no column %q in %q", ci.Col, ci.Table)
	}
	ix := &catalog.Index{Name: ci.Name, Col: col}
	if ci.UseHash {
		ix.Hash = index.NewHashIndex()
	} else {
		ix.BT = index.NewBTree()
	}
	// Backfill from committed data.
	tx := s.db.mgr.Begin(txn.Snapshot, true)
	cursor := tbl.Heap.NewCursor()
	for {
		id, head, ok := cursor.Next()
		if !ok {
			break
		}
		row, visible := s.db.mgr.ReadHead(tbl.ID, id, head, tx)
		if visible {
			ix.Insert(row[col], id)
		}
	}
	s.db.mgr.Abort(tx)
	tbl.AddIndex(ix)
	// New access path: invalidate cached plans.
	s.db.cat.BumpVersion()
	// The WAL record is metadata-only (replay rebuilds index contents from
	// heap data), so ordering relative to commits is immaterial; the gate
	// only orders it against a concurrent DROP TABLE.
	if w := s.db.wlog; w != nil {
		w.GateLock()
		lsn, aerr := w.AppendDDL(wal.EncodeCreateIndex(nil, tbl.ID, ix.Name, col, ci.UseHash))
		w.GateUnlock()
		if aerr != nil {
			return nil, fmt.Errorf("neurdb: wal append: %w", aerr)
		}
		if err := w.Sync(lsn); err != nil {
			return nil, err
		}
	}
	return &Result{Message: "CREATE INDEX"}, nil
}

func (s *Session) execInsert(ins *sqlparse.Insert, args []rel.Value) (*Result, error) {
	tbl, err := s.db.cat.Get(ins.Table)
	if err != nil {
		return nil, err
	}
	// Map column list (or positional) to schema positions.
	positions := make([]int, 0, tbl.Schema.Arity())
	if len(ins.Cols) == 0 {
		for i := 0; i < tbl.Schema.Arity(); i++ {
			positions = append(positions, i)
		}
	} else {
		for _, name := range ins.Cols {
			ci := tbl.Schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("neurdb: no column %q in %q", name, ins.Table)
			}
			positions = append(positions, ci)
		}
	}
	// Evaluate every VALUES tuple before touching the heap, so a bad tuple
	// inserts nothing; the materialized rows then ride the page-batched
	// insert path in one transaction-manager call.
	rows := make([]rel.Row, 0, len(ins.Rows))
	for _, exprRow := range ins.Rows {
		if len(exprRow) != len(positions) {
			return nil, fmt.Errorf("neurdb: INSERT arity mismatch: %d values for %d columns", len(exprRow), len(positions))
		}
		row := make(rel.Row, tbl.Schema.Arity())
		for i := range row {
			row[i] = rel.Null()
		}
		for i, e := range exprRow {
			v, err := evalConstExpr(e, args)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		rows = append(rows, row)
	}
	tx, done := s.begin(false)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat}
	_, execErr := executor.InsertBatch(ctx, tbl, rows)
	if err := done(execErr); err != nil {
		return nil, err
	}
	s.observeWrite(ctx)
	return &Result{Affected: len(rows), Message: fmt.Sprintf("INSERT %d", len(rows))}, nil
}

// evalConstExpr evaluates a parsed expression with no column references;
// parameters resolve against args.
func evalConstExpr(e sqlparse.Expr, args []rel.Value) (rel.Value, error) {
	switch t := e.(type) {
	case *sqlparse.Lit:
		return t.Val, nil
	case *sqlparse.Param:
		if t.Idx < 0 || t.Idx >= len(args) {
			return rel.Value{}, fmt.Errorf("neurdb: parameter $%d out of range (%d bound)", t.Idx+1, len(args))
		}
		return args[t.Idx], nil
	case *sqlparse.Unary:
		if t.Op == "-" {
			v, err := evalConstExpr(t.E, args)
			if err != nil {
				return rel.Value{}, err
			}
			switch v.Typ {
			case rel.TypeInt:
				return rel.Int(-v.I), nil
			case rel.TypeFloat:
				return rel.Float(-v.F), nil
			default:
				// Non-numeric: fall through to the error below.
			}
		}
		return rel.Value{}, fmt.Errorf("neurdb: unsupported constant expression")
	case *sqlparse.Binary:
		l, err := evalConstExpr(t.L, args)
		if err != nil {
			return rel.Value{}, err
		}
		r, err := evalConstExpr(t.R, args)
		if err != nil {
			return rel.Value{}, err
		}
		be := &rel.BinOp{L: &rel.Const{Val: l}, R: &rel.Const{Val: r}}
		switch t.Op {
		case "+":
			be.Kind = rel.OpAdd
		case "-":
			be.Kind = rel.OpSub
		case "*":
			be.Kind = rel.OpMul
		case "/":
			be.Kind = rel.OpDiv
		case "%":
			be.Kind = rel.OpMod
		default:
			return rel.Value{}, fmt.Errorf("neurdb: unsupported constant operator %q", t.Op)
		}
		return be.Eval(nil), nil
	default:
		return rel.Value{}, fmt.Errorf("neurdb: INSERT values must be constants, got %T", e)
	}
}

// PlanSelect builds the physical plan for a SELECT under the active
// optimizer mode (exported for benchmarks and EXPLAIN).
func (db *DB) PlanSelect(sel *sqlparse.Select) (plan.Node, error) {
	q, err := optimizer.Bind(sel, db.cat)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	mode := db.cfg.Optimizer
	learned := db.learnedQO
	db.mu.Unlock()
	if mode == LearnedMode && learned != nil {
		cands, err := optimizer.EnumerateCandidates(q, nil, []float64{0.1, 10})
		if err != nil {
			return nil, err
		}
		nodes := make([]plan.Node, len(cands))
		for i, c := range cands {
			nodes[i] = c.Plan
		}
		cond := learnedopt.BuildConditions(db.cat.All(), db.pool)
		pick := learned.Choose(learnedopt.EncodeCandidates(nodes), cond)
		return nodes[pick], nil
	}
	return db.costOptimizer(mode).Plan(q)
}

// costOptimizer returns the cost-based optimizer mode calls for: the last
// ANALYZE's statistics under StaleCostMode, live statistics otherwise (the
// learned mode ranks whole SELECT plans; where there is nothing to rank — no
// model yet, or a write statement's single access path — it falls back here).
func (db *DB) costOptimizer(mode OptimizerMode) *optimizer.Optimizer {
	if mode == StaleCostMode {
		return &optimizer.Optimizer{Stats: db.StaleStatsView(), CardScale: 1}
	}
	return optimizer.New()
}

// StaleStatsView returns a StatsView serving the snapshots captured at the
// last ANALYZE (tables never analyzed fall back to live stats).
func (db *DB) StaleStatsView() optimizer.StatsView {
	return func(t *catalog.Table) *stats.TableStats {
		db.mu.Lock()
		defer db.mu.Unlock()
		if snap, ok := db.staleStats[t.ID]; ok {
			return snap
		}
		return t.Stats
	}
}

func (s *Session) execSelect(sel *sqlparse.Select, args []rel.Value) (*Result, error) {
	rows, err := s.querySelect(sel, args)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// dmlTarget resolves a single-table write statement's table and binds its
// WHERE clause against it.
func (s *Session) dmlTarget(table string, where sqlparse.Expr) (*catalog.Table, rel.Expr, error) {
	tbl, err := s.db.cat.Get(table)
	if err != nil {
		return nil, nil, err
	}
	bound, err := bindTableExpr(tbl, where)
	return tbl, bound, err
}

// dmlAccessPath asks the optimizer's access-path entry point — the decision
// a SELECT's base table gets — how to find the rows a write statement
// changes. Executions pass the predicate with their arguments already
// substituted, so the estimate reads the real histogram; planning costs
// microseconds, so write statements plan per execution and cache nothing.
func (db *DB) dmlAccessPath(tbl *catalog.Table, where rel.Expr) plan.Node {
	return db.costOptimizer(db.OptimizerModeNow()).AccessPath(tbl, where)
}

func (s *Session) execUpdate(up *sqlparse.Update, args []rel.Value) (*Result, error) {
	tbl, where, err := s.dmlTarget(up.Table, up.Where)
	if err != nil {
		return nil, err
	}
	src := s.db.dmlAccessPath(tbl, rel.SubstParams(where, args))
	set := make(map[int]rel.Expr, len(up.Set))
	for name, e := range up.Set {
		ci := tbl.Schema.ColIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("neurdb: no column %q in %q", name, up.Table)
		}
		bound, err := bindTableExpr(tbl, e)
		if err != nil {
			return nil, err
		}
		set[ci] = rel.SubstParams(bound, args)
	}
	tx, done := s.begin(false)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers()}
	n, execErr := executor.UpdateWhere(ctx, src, set)
	if err := done(execErr); err != nil {
		return nil, err
	}
	s.observeWrite(ctx)
	return &Result{Affected: n, Message: fmt.Sprintf("UPDATE %d", n)}, nil
}

func (s *Session) execDelete(del *sqlparse.Delete, args []rel.Value) (*Result, error) {
	tbl, where, err := s.dmlTarget(del.Table, del.Where)
	if err != nil {
		return nil, err
	}
	src := s.db.dmlAccessPath(tbl, rel.SubstParams(where, args))
	tx, done := s.begin(false)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers()}
	n, execErr := executor.DeleteWhere(ctx, src)
	if err := done(execErr); err != nil {
		return nil, err
	}
	s.observeWrite(ctx)
	return &Result{Affected: n, Message: fmt.Sprintf("DELETE %d", n)}, nil
}

// observeWrite feeds the monitor after a write statement: the buffer pool's
// dirty-page count ("pool.dirty", watched by the checkpoint/flush drift
// detectors), the claim-stripe contention delta since the last observation
// ("txn.stripe_wait"), and — when the statement rode the morsel-parallel
// write path — the page count it dispatched ("dml.parallel_pages").
func (s *Session) observeWrite(ctx *executor.Ctx) {
	s.db.tracker.Observe("pool.dirty", float64(s.db.pool.DirtyPages()))
	_, waits := s.db.mgr.StripeStats()
	// Swap-then-compare tolerates racing sessions: a stale read at worst
	// attributes the delta to the other session's observation, never twice.
	if seen := s.db.stripeWaitSeen.Swap(waits); waits > seen {
		s.db.tracker.Count("txn.stripe_wait", float64(waits-seen))
	}
	if ctx.DMLParallelPages > 0 {
		s.db.tracker.Count("dml.parallel_pages", float64(ctx.DMLParallelPages))
	}
}

// bindTableExpr binds a parsed expression against a single table's schema
// via a synthetic single-table query.
func bindTableExpr(tbl *catalog.Table, e sqlparse.Expr) (rel.Expr, error) {
	if e == nil {
		return nil, nil
	}
	q := syntheticQuery(tbl)
	return q.BindExprPublic(e)
}

// syntheticQuery builds a one-table binding context.
func syntheticQuery(tbl *catalog.Table) *optimizer.Query {
	return optimizer.SingleTableQuery(tbl)
}

func (s *Session) execTxnStmt(t *sqlparse.TxnStmt) (*Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t.Kind {
	case "BEGIN":
		if s.txn != nil {
			return nil, fmt.Errorf("neurdb: transaction already open")
		}
		s.txn = s.db.mgr.Begin(s.level(), false)
		return &Result{Message: "BEGIN"}, nil
	case "COMMIT":
		if s.txn == nil {
			return nil, fmt.Errorf("neurdb: no open transaction")
		}
		err := s.db.mgr.Commit(s.txn)
		s.txn = nil
		if err != nil {
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
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat}
	for _, t := range tables {
		rows := executor.ScanAll(ctx, t)
		t.Stats.Rebuild(rows)
		s.db.mu.Lock()
		s.db.staleStats[t.ID] = t.Stats.Snapshot()
		s.db.mu.Unlock()
	}
	s.db.mgr.Abort(tx)
	// Fresh statistics change plan choice: invalidate cached plans.
	s.db.cat.BumpVersion()
	return &Result{Message: fmt.Sprintf("ANALYZE %d tables", len(tables))}, nil
}

// execExplain prints the plan of a SELECT, or the access node an UPDATE or
// DELETE would find its rows with (parameters left in place: the generic
// shape; an execution plans with its arguments inlined).
func (s *Session) execExplain(e *sqlparse.Explain) (*Result, error) {
	var p plan.Node
	var err error
	switch t := e.Inner.(type) {
	case *sqlparse.Select:
		p, err = s.db.PlanSelect(t)
	case *sqlparse.Update:
		p, err = s.explainDML(t.Table, t.Where)
	case *sqlparse.Delete:
		p, err = s.explainDML(t.Table, t.Where)
	default:
		err = fmt.Errorf("neurdb: EXPLAIN supports SELECT, UPDATE and DELETE only")
	}
	if err != nil {
		return nil, err
	}
	text := plan.Explain(p)
	var rows []rel.Row
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		rows = append(rows, rel.Row{rel.Text(line)})
	}
	return &Result{Columns: []string{"plan"}, Rows: rows}, nil
}

func (s *Session) explainDML(table string, whereAST sqlparse.Expr) (plan.Node, error) {
	tbl, where, err := s.dmlTarget(table, whereAST)
	if err != nil {
		return nil, err
	}
	return s.db.dmlAccessPath(tbl, where), nil
}

func (s *Session) execSet(st *sqlparse.SetStmt) (*Result, error) {
	switch st.Key {
	case "optimizer":
		switch OptimizerMode(strings.ToLower(st.Value)) {
		case CostMode, StaleCostMode, LearnedMode:
			s.db.SetOptimizerMode(OptimizerMode(strings.ToLower(st.Value)))
			return &Result{Message: "SET optimizer"}, nil
		}
		return nil, fmt.Errorf("neurdb: unknown optimizer mode %q", st.Value)
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

func (s *Session) execPredict(pr *sqlparse.Predict, args []rel.Value) (*Result, error) {
	tbl, err := s.db.cat.Get(pr.Table)
	if err != nil {
		return nil, err
	}
	targetIdx := tbl.Schema.ColIndex(pr.Target)
	if targetIdx < 0 {
		return nil, fmt.Errorf("neurdb: no column %q in %q", pr.Target, pr.Table)
	}
	// Feature columns: explicit list, or * = everything except the target
	// and unique-constrained columns (paper §2.3).
	var featureIdxs []int
	if pr.TrainAll {
		for i, c := range tbl.Schema.Cols {
			if i == targetIdx || c.Unique {
				continue
			}
			featureIdxs = append(featureIdxs, i)
		}
	} else {
		for _, name := range pr.TrainCols {
			ci := tbl.Schema.ColIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("neurdb: no column %q in %q", name, pr.Table)
			}
			if ci == targetIdx {
				continue
			}
			featureIdxs = append(featureIdxs, ci)
		}
	}
	trainFilter, err := bindTableExpr(tbl, pr.With)
	if err != nil {
		return nil, err
	}
	trainFilter = rel.SubstParams(trainFilter, args)
	predictFilter, err := bindTableExpr(tbl, pr.Where)
	if err != nil {
		return nil, err
	}
	predictFilter = rel.SubstParams(predictFilter, args)
	var inline []rel.Row
	for ri, exprRow := range pr.Values {
		// Inline rows are positional over the feature columns; verify the
		// arity here, where the statement context is known, instead of
		// failing (or silently misaligning) deep in the featurizer.
		if len(exprRow) != len(featureIdxs) {
			return nil, fmt.Errorf("neurdb: PREDICT VALUES row %d has %d values for %d feature columns",
				ri+1, len(exprRow), len(featureIdxs))
		}
		row := make(rel.Row, len(exprRow))
		for i, e := range exprRow {
			v, err := evalConstExpr(e, args)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		inline = append(inline, row)
	}

	task := executor.PredictTask{
		Table:          tbl,
		TargetIdx:      targetIdx,
		FeatureIdxs:    featureIdxs,
		Classification: pr.Kind == sqlparse.PredictClass,
		TrainFilter:    trainFilter,
		PredictFilter:  predictFilter,
		InlineRows:     inline,
		ModelName:      tbl.Name + "." + strings.ToLower(pr.Target),
	}
	tx := s.db.mgr.Begin(txn.Snapshot, true)
	ctx := &executor.Ctx{Mgr: s.db.mgr, Txn: tx, Cat: s.db.cat, Workers: s.effectiveWorkers()}
	res, err := executor.RunPredict(ctx, s.db.engine, task)
	s.db.mgr.Abort(tx)
	if err != nil {
		return nil, err
	}
	// Track training loss in the monitor (accuracy-drift detection input).
	if res.Train != nil && len(res.Train.Losses) > 0 {
		s.db.tracker.Observe("predict."+task.ModelName+".loss", res.Train.Losses[len(res.Train.Losses)-1])
	}
	out := &Result{
		Columns:     []string{"prediction"},
		Predictions: res.Predictions,
		Message:     fmt.Sprintf("PREDICT %s OF %s: %d predictions (model MID=%d reused=%v)", pr.Kind, pr.Target, len(res.Predictions), res.MID, res.Reused),
	}
	for _, p := range res.Predictions {
		v := p
		if task.Classification {
			if v >= 0.5 {
				v = 1
			} else {
				v = 0
			}
		}
		out.Rows = append(out.Rows, rel.Row{rel.Float(v)})
	}
	return out, nil
}
