package neurdb

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"

	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
)

// Stmt is a statement parsed once and executed many times with per-call
// parameter values ('?' or '$n' placeholders). A planned statement (SELECT,
// INSERT, UPDATE, DELETE, PREDICT) is also bound and planned once: its plan
// lives in the DB-wide plan cache, keyed by statement text and optimizer mode
// and invalidated by catalog version (DDL and ANALYZE bump it). Session.Exec
// and Query run through a throwaway Stmt, so there is one execution path. A
// Stmt is safe for concurrent use.
type Stmt struct {
	s       *Session
	sql     string
	ast     sqlparse.Stmt
	nParams int
	closed  atomic.Bool
	// entry is the statement-local view of the cached plan, revalidated on
	// every execution against the catalog version and optimizer mode
	// without taking the shared cache's lock (nil for utility statements).
	entry atomic.Pointer[planEntry]
}

// parse builds the Stmt every execution goes through.
func (s *Session) parse(sql string) (*Stmt, error) {
	sql = strings.TrimSpace(sql)
	ast, err := sqlparse.Parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{s: s, sql: sql, ast: ast, nParams: sqlparse.ParamCount(ast)}, nil
}

// Prepare parses and plans a statement on the implicit session.
func (db *DB) Prepare(sql string) (*Stmt, error) { return db.session.Prepare(sql) }

// Prepare parses a statement for this session and compiles a planned one, so
// an unknown table or column fails here rather than at the first execution.
// The plan is shared through the DB plan cache: preparing the same text on
// many sessions plans it once per catalog version.
func (s *Session) Prepare(sql string) (*Stmt, error) {
	st, err := s.parse(sql)
	if err != nil {
		return nil, err
	}
	if _, err := st.plan(); err != nil && !errors.Is(err, optimizer.ErrNotPlanned) {
		return nil, err
	}
	return st, nil
}

// NumParams returns the number of parameters the statement takes.
func (st *Stmt) NumParams() int { return st.nParams }

// explainSchema is EXPLAIN's result shape: one line of plan text per row.
var explainSchema = rel.NewSchema(rel.Column{Name: "plan", Typ: rel.TypeText})

// ResultSchema returns the typed schema of the rows the statement returns,
// known before it runs: the compiled plan's (revalidated against the catalog
// first, since DDL can change the shape) for SELECT and PREDICT, EXPLAIN's
// fixed one, and nil for statements that return no rows. It backs the
// server's Describe message.
func (st *Stmt) ResultSchema() (*rel.Schema, error) {
	switch st.ast.(type) {
	case *sqlparse.Explain:
		return explainSchema, nil
	case *sqlparse.Select, *sqlparse.Predict:
		e, err := st.plan()
		if err != nil {
			return nil, err
		}
		return e.node.Schema(), nil
	default: // writes, DDL, ANALYZE, transaction control and SET return no rows
		return nil, nil
	}
}

// Query executes the statement with the given arguments and returns a cursor
// (see Rows): streaming for a SELECT, materialized — carrying Message and
// Affected — for everything else.
func (st *Stmt) Query(args ...any) (*Rows, error) {
	if st.closed.Load() {
		return nil, fmt.Errorf("neurdb: statement is closed")
	}
	vals, err := convertArgs(st.nParams, args)
	if err != nil {
		return nil, err
	}
	return st.s.execStmt(st, vals)
}

// Exec executes the statement with the given arguments and materializes the
// outcome, draining the cursor for SELECTs.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	rows, err := st.Query(args...)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// Close marks the statement unusable. The cached plan stays in the shared
// cache for other statements with the same text.
func (st *Stmt) Close() error {
	st.closed.Store(true)
	return nil
}

// plan returns the statement's compiled plan. The fast path revalidates the
// statement-local entry with a lock-free catalog-version and mode compare
// (counting a cache hit), so concurrent prepared executions do not serialize
// on the shared cache's mutex; invalidation falls back to the shared cache,
// which replans as needed.
func (st *Stmt) plan() (*planEntry, error) {
	db := st.s.db
	if e := st.entry.Load(); e != nil && e.catVer == db.cat.Version() && e.key.mode == db.OptimizerModeNow() {
		db.plans.hits.Add(1)
		return e, nil
	}
	e, err := db.compile(st.sql, st.ast)
	if err != nil {
		return nil, err
	}
	st.entry.Store(e)
	return e, nil
}

// compile is the single place a statement becomes a plan: the shared cache's
// entry for (optimizer mode, SQL text) while the catalog version it was
// planned under still stands, a fresh plan — cached — otherwise. Cache
// traffic feeds the monitor ("plancache.hit"); PlanCacheStats counts it plus
// the statements' lock-free local revalidations.
func (db *DB) compile(sql string, stmt sqlparse.Stmt) (*planEntry, error) {
	key := planKey{mode: db.OptimizerModeNow(), sql: sql}
	ver := db.cat.Version()
	if e, ok := db.plans.get(key, ver); ok {
		db.tracker.Observe("plancache.hit", 1)
		return e, nil
	}
	node, err := db.optimizerFor(key.mode).PlanStmt(stmt, db.cat)
	if err != nil {
		return nil, err
	}
	e := &planEntry{
		key:       key,
		node:      node,
		columns:   node.Schema().Names(),
		hasParams: plan.HasParams(node),
		catVer:    ver,
	}
	switch node.(type) {
	case *plan.Insert, *plan.Update, *plan.Delete:
		e.writes = true
	case *plan.Predict: // runs to completion, reading
	default:
		e.streams = true
	}
	// Admission: an INSERT without parameters is compiled to its rows (a bulk
	// load: megabytes under a text that never repeats), so it is not cached.
	if _, insert := node.(*plan.Insert); !insert || e.hasParams {
		db.plans.put(e)
		db.tracker.Observe("plancache.hit", 0)
	}
	return e, nil
}

// PlanCacheStats returns the cumulative plan-cache hit/miss counters.
func (db *DB) PlanCacheStats() (uint64, uint64) { return db.plans.hits.Load(), db.plans.misses.Load() }
