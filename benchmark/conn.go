package main

import (
	"neurdb"
	"neurdb/client"
)

// conn is what a workload's operations need from a database connection. Two
// implementations exist so that the same operation, with the same checks,
// runs over the wire (the path that is benchmarked) and embedded (the path
// the traced run subtracts to isolate the wire layer's own time).
type conn interface {
	// prepare compiles a statement; shape names it in trace spans.
	prepare(shape, sql string) (stmt, error)
	// text runs ad-hoc SQL text that carries its own literals.
	text(shape, sql string, each func(scanner) error) (int64, error)
	close() error
}

// stmt is a prepared statement. run executes it, hands every result row to
// each (nil to discard them), releases the cursor, and returns the number of
// rows returned (or affected, for DML).
type stmt interface {
	run(each func(scanner) error, args ...any) (int64, error)
}

type scanner interface{ Scan(dest ...any) error }

// cursor is the part of client.Rows and neurdb.Rows the adapters share.
type cursor interface {
	scanner
	Next() bool
	Err() error
	Close() error
}

// drain iterates a cursor to its end and closes it.
func drain(rows cursor, each func(scanner) error) (int64, error) {
	var n int64
	for rows.Next() {
		n++
		if each == nil {
			continue
		}
		if err := each(rows); err != nil {
			rows.Close()
			return n, err
		}
	}
	if err := rows.Err(); err != nil {
		rows.Close()
		return n, err
	}
	return n, rows.Close()
}

// wireConn runs statements through the native client over TCP.
type wireConn struct{ c *client.Conn }

type wireStmt struct{ st *client.Stmt }

func (w wireConn) prepare(_, sql string) (stmt, error) {
	st, err := w.c.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return wireStmt{st}, nil
}

func (w wireConn) text(_, sql string, each func(scanner) error) (int64, error) {
	rows, err := w.c.Query(sql)
	if err != nil {
		return 0, err
	}
	return wireCount(rows, each)
}

func (w wireConn) close() error { return w.c.Close() }

func (s wireStmt) run(each func(scanner) error, args ...any) (int64, error) {
	rows, err := s.st.Query(args...)
	if err != nil {
		return 0, err
	}
	return wireCount(rows, each)
}

func wireCount(rows *client.Rows, each func(scanner) error) (int64, error) {
	n, err := drain(rows, each)
	if err == nil && n == 0 {
		n = rows.Affected() // DML: no rows streamed, the tag carries the count
	}
	return n, err
}

// embeddedConn runs statements on an in-process session, bypassing the
// client, the wire protocol and the server.
type embeddedConn struct{ s *neurdb.Session }

type embeddedStmt struct{ st *neurdb.Stmt }

func (e embeddedConn) prepare(_, sql string) (stmt, error) {
	st, err := e.s.Prepare(sql)
	if err != nil {
		return nil, err
	}
	return embeddedStmt{st}, nil
}

func (e embeddedConn) text(_, sql string, each func(scanner) error) (int64, error) {
	rows, err := e.s.Query(sql)
	if err != nil {
		return 0, err
	}
	return embeddedCount(rows, each)
}

func (e embeddedConn) close() error { return e.s.Close() }

func (s embeddedStmt) run(each func(scanner) error, args ...any) (int64, error) {
	rows, err := s.st.Query(args...)
	if err != nil {
		return 0, err
	}
	return embeddedCount(rows, each)
}

func embeddedCount(rows *neurdb.Rows, each func(scanner) error) (int64, error) {
	n, err := drain(rows, each)
	if err == nil && n == 0 {
		n = int64(rows.Affected())
	}
	return n, err
}

// tracedConn decorates a conn for the traced run: while an operation span is
// open (cur >= 0) every statement the operation runs becomes a child span
// named layer:shape, and — when stmts is non-nil — the statement text is
// logged, which is how the layer probes obtain the workload's statement
// sample in its true proportions.
type tracedConn struct {
	conn
	tr    *tracer
	layer string // "client" for wire connections, "embedded" for sessions
	cur   int    // open operation span, -1 outside sampled operations
	opID  int64
	stmts *[]string
}

type tracedStmt struct {
	stmt
	tc         *tracedConn
	shape, sql string
}

func (t *tracedConn) prepare(shape, sql string) (stmt, error) {
	st, err := t.conn.prepare(shape, sql)
	if err != nil {
		return nil, err
	}
	return tracedStmt{st, t, shape, sql}, nil
}

func (t *tracedConn) note(shape, sql string) int {
	if t.cur < 0 {
		return -1
	}
	if t.stmts != nil {
		*t.stmts = append(*t.stmts, sql)
	}
	return t.tr.begin(t.layer+":"+shape, t.cur, t.opID)
}

func (t *tracedConn) text(shape, sql string, each func(scanner) error) (int64, error) {
	sp := t.note(shape, sql)
	defer t.tr.end(sp)
	return t.conn.text(shape, sql, each)
}

func (s tracedStmt) run(each func(scanner) error, args ...any) (int64, error) {
	sp := s.tc.note(s.shape, s.sql)
	defer s.tc.tr.end(sp)
	return s.stmt.run(each, args...)
}
