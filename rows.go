package neurdb

import (
	"fmt"
	"time"

	"neurdb/internal/executor"
	"neurdb/internal/rel"
)

// Rows is a streaming result cursor. A SELECT executed through Query pulls
// rel.Batches from the vectorized executor incrementally — at most one
// batch is materialized at a time — and holds its read transaction open
// until Close (or end of stream), so consumers see the first row before the
// last one is produced. Statements without a streaming shape (DML, DDL,
// EXPLAIN, PREDICT) come back as an already-materialized Rows whose Message
// and Affected carry the statement outcome.
//
// Usage follows database/sql:
//
//	rows, err := db.Query(`SELECT id, score FROM review WHERE stars >= ?`, 3)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		var id int64
//		var score float64
//		if err := rows.Scan(&id, &score); err != nil { ... }
//	}
//	if err := rows.Err(); err != nil { ... }
//
// A Rows is not safe for concurrent use.
type Rows struct {
	cols   []string
	schema *rel.Schema // result schema for streamed SELECTs; nil for materialized results

	// Streaming state (SELECT): it pulls batches, done finalizes the read
	// transaction. Both are nil once the stream is finished.
	it    executor.BatchIter
	done  func(error) error
	batch *rel.Batch
	pos   int

	// res is the whole outcome of a statement that does not stream (nil for
	// a streamed SELECT): the cursor iterates its Rows.
	res *Result

	// deadline bounds the stream (Config.StatementTimeout / SET
	// statement_timeout): enforced before each batch pull, the same
	// granularity as client-driven Cancel. Zero = no bound.
	deadline time.Time

	cur    rel.Row
	err    error
	closed bool
}

// newStreamingRows opens the iterator and wraps it as a cursor. On error
// the read transaction is finalized before returning.
func newStreamingRows(cols []string, schema *rel.Schema, it executor.BatchIter, done func(error) error) (*Rows, error) {
	if err := it.Open(); err != nil {
		it.Close()
		return nil, done(err)
	}
	// The batch starts empty and grows toward executor.BatchSize on demand:
	// point lookups (the prepared-statement hot path) then pay for one or
	// two rows instead of a full-size batch allocation per execution.
	return &Rows{cols: cols, schema: schema, it: it, done: done, batch: rel.NewBatch(0)}, nil
}

// newStaticRows wraps a materialized result as a cursor.
func newStaticRows(res *Result) *Rows {
	return &Rows{cols: res.Columns, res: res}
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Schema returns the typed result schema for a streamed SELECT, or nil for
// materialized results (DML, DDL, EXPLAIN, PREDICT), whose column types are
// carried by the values themselves. The wire server uses it to emit
// RowDescription type hints.
func (r *Rows) Schema() *rel.Schema { return r.schema }

// Message returns the statement message for non-streaming statements
// ("INSERT 3", "CREATE TABLE", ...); empty for streamed SELECTs.
func (r *Rows) Message() string {
	if r.res == nil {
		return ""
	}
	return r.res.Message
}

// Affected returns the affected-row count for DML executed through Query.
func (r *Rows) Affected() int {
	if r.res == nil {
		return 0
	}
	return r.res.Affected
}

// Next advances to the next row, pulling the next batch from the executor
// when the current one is drained. It returns false at end of stream or on
// error (check Err). Reaching end of stream releases the read transaction
// immediately; Close is still required on early exit.
func (r *Rows) Next() bool {
	if r.closed || r.err != nil {
		return false
	}
	if r.res != nil { // materialized result
		if r.pos >= len(r.res.Rows) {
			r.cur = nil
			return false
		}
		r.cur = r.res.Rows[r.pos]
		r.pos++
		return true
	}
	for {
		if r.pos < r.batch.Len() {
			r.cur = r.batch.Rows[r.pos]
			r.pos++
			return true
		}
		if r.it == nil { // stream already finished
			r.cur = nil
			return false
		}
		if !r.deadline.IsZero() && time.Now().After(r.deadline) {
			r.err = ErrStatementTimeout
			r.finish(r.err)
			r.cur = nil
			return false
		}
		n, err := r.it.NextBatch(r.batch)
		if err != nil {
			r.err = err
			r.finish(err)
			r.cur = nil
			return false
		}
		if n == 0 {
			if ferr := r.finish(nil); ferr != nil && r.err == nil {
				r.err = ferr
			}
			r.cur = nil
			return false
		}
		r.pos = 0
	}
}

// Row returns the current row (valid after Next returned true). The row
// must not be mutated.
func (r *Rows) Row() rel.Row { return r.cur }

// Scan copies the current row into dest, one target per column. Supported
// targets: *int, *int64, *float64, *string, *bool, *rel.Value, *any.
// SQL NULL scans as the target's zero value (nil for *any).
func (r *Rows) Scan(dest ...any) error {
	if r.cur == nil {
		return fmt.Errorf("neurdb: Scan called without a current row")
	}
	if len(dest) != len(r.cur) {
		return fmt.Errorf("neurdb: Scan has %d targets for %d columns", len(dest), len(r.cur))
	}
	for i, d := range dest {
		if err := rel.Assign(d, r.cur[i]); err != nil {
			return fmt.Errorf("neurdb: Scan column %d: %w", i, err)
		}
	}
	return nil
}

// Err returns the error, if any, encountered during iteration or when
// finalizing the read transaction at end of stream.
func (r *Rows) Err() error { return r.err }

// Close releases the cursor, closing the iterator and finalizing the read
// transaction if the stream was not already drained. It is idempotent.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	r.cur = nil
	return r.finish(r.err)
}

// finish tears down the streaming state exactly once: the iterator is
// closed and the transaction finalizer runs (commit on success, abort when
// err != nil). It returns the teardown error, if any.
func (r *Rows) finish(err error) error {
	var out error
	if r.it != nil {
		if cerr := r.it.Close(); cerr != nil && err == nil {
			err, out = cerr, cerr
		}
		r.it = nil
	}
	if r.done != nil {
		if ferr := r.done(err); ferr != nil && ferr != err {
			out = ferr
		}
		r.done = nil
	}
	return out
}

// drain consumes the remaining rows into a Result and closes the cursor —
// the compatibility bridge Exec uses on top of the streaming path.
func (r *Rows) drain() (*Result, error) {
	if r.res != nil {
		r.closed = true
		return r.res, nil
	}
	var rows []rel.Row
	for r.Next() {
		rows = append(rows, r.cur)
	}
	if cerr := r.Close(); r.err == nil && cerr != nil {
		return nil, cerr
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{Columns: r.cols, Rows: rows}, nil
}

// convertArgs validates the argument count against the statement's
// parameter count and converts each argument through the table shared with
// the wire client (rel.FromGo), so arguments bind identically embedded and
// remote.
func convertArgs(nParams int, args []any) ([]rel.Value, error) {
	if len(args) != nParams {
		return nil, fmt.Errorf("neurdb: statement takes %d parameters, got %d arguments", nParams, len(args))
	}
	if nParams == 0 {
		return nil, nil
	}
	out := make([]rel.Value, nParams)
	for i, a := range args {
		v, err := rel.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("neurdb: %w", err)
		}
		out[i] = v
	}
	return out, nil
}
