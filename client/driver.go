package client

import (
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
)

// Driver implements database/sql/driver.Driver over the native client, so
// any Go application can use standard idioms:
//
//	db, err := sql.Open("neurdb", "127.0.0.1:5433")
//
// The data source name is the server address. Every database/sql
// connection maps to one wire connection with its own server session;
// prepared statements are server-side (Parse/Bind/Execute), so repeated
// parameterized queries hit the server's shared plan cache.
type Driver struct{}

func init() { sql.Register("neurdb", Driver{}) }

// Open dials the server.
func (Driver) Open(name string) (driver.Conn, error) {
	c, err := Connect(name)
	if err != nil {
		return nil, err
	}
	return &sqlConn{c: c}, nil
}

type sqlConn struct{ c *Conn }

// Prepare compiles a server-side prepared statement.
func (s *sqlConn) Prepare(query string) (driver.Stmt, error) {
	st, err := s.c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return &sqlStmt{st: st}, nil
}

func (s *sqlConn) Close() error { return s.c.Close() }

// Begin opens an explicit transaction on the connection's server session.
func (s *sqlConn) Begin() (driver.Tx, error) {
	if _, err := s.c.Exec("BEGIN"); err != nil {
		return nil, err
	}
	return &sqlTx{c: s.c}, nil
}

// Ping implements driver.Pinger with an empty command round trip.
func (s *sqlConn) Ping() error { return s.c.Ping() }

type sqlTx struct{ c *Conn }

func (t *sqlTx) Commit() error {
	_, err := t.c.Exec("COMMIT")
	return err
}

func (t *sqlTx) Rollback() error {
	_, err := t.c.Exec("ROLLBACK")
	return err
}

type sqlStmt struct{ st *Stmt }

func (s *sqlStmt) Close() error { return s.st.Close() }

// NumInput lets database/sql validate argument counts client-side.
func (s *sqlStmt) NumInput() int { return s.st.NumParams() }

func (s *sqlStmt) Exec(args []driver.Value) (driver.Result, error) {
	res, err := s.st.Exec(driverArgs(args)...)
	if err != nil {
		return nil, err
	}
	return sqlResult{affected: res.Affected}, nil
}

func (s *sqlStmt) Query(args []driver.Value) (driver.Rows, error) {
	rows, err := s.st.Query(driverArgs(args)...)
	if err != nil {
		return nil, err
	}
	return &sqlRows{rows: rows}, nil
}

type sqlResult struct{ affected int64 }

// LastInsertId is not supported: NeurDB has no auto-increment rowids.
func (sqlResult) LastInsertId() (int64, error) {
	return 0, fmt.Errorf("neurdb: LastInsertId is not supported")
}

func (r sqlResult) RowsAffected() (int64, error) { return r.affected, nil }

type sqlRows struct{ rows *Rows }

func (r *sqlRows) Columns() []string { return r.rows.Columns() }

func (r *sqlRows) Close() error { return r.rows.Close() }

// Next copies the next row into dest as driver values (int64, float64,
// bool, string, nil).
func (r *sqlRows) Next(dest []driver.Value) error {
	if !r.rows.Next() {
		if err := r.rows.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	if len(dest) < len(r.rows.cur) {
		return fmt.Errorf("neurdb: row has %d columns, destination holds %d", len(r.rows.cur), len(dest))
	}
	for i, v := range r.rows.cur {
		dest[i] = v.GoValue()
	}
	return nil
}

// driverArgs widens []driver.Value to []any for the native API.
func driverArgs(args []driver.Value) []any {
	out := make([]any, len(args))
	for i, a := range args {
		out[i] = a
	}
	return out
}
