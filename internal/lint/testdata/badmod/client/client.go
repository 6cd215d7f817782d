// Package client seeds lifecycle violations for the neurdb-lint fixture
// module: finalizable values used after Close, alongside the clean idioms
// that must stay silent.
package client

// Rows is a miniature result cursor.
type Rows struct {
	closed bool
	n      int
}

// Next advances the cursor.
func (r *Rows) Next() bool { r.n--; return r.n > 0 && !r.closed }

// Scan copies the current row.
func (r *Rows) Scan(dst *int) { *dst = r.n }

// Close finalizes the cursor and its read transaction.
func (r *Rows) Close() error { r.closed = true; return nil }

// Err reports the terminal error; callable after Close by contract.
func (r *Rows) Err() error { return nil }

// Conn is a miniature server connection.
type Conn struct{ open bool }

// Ping round-trips the connection.
func (c *Conn) Ping() error { return nil }

// Close tears the connection down.
func (c *Conn) Close() error { c.open = false; return nil }

// Drain consumes and closes r. Exported so sibling fixture packages can
// exercise the cross-package close summary.
func Drain(r *Rows) {
	for r.Next() {
	}
	r.Close()
}

// finish is the package-local helper whose summary closes its parameter.
func finish(r *Rows) error { return r.Close() }

// useAfterClose reads the cursor after finalizing it.
func useAfterClose(r *Rows) bool {
	r.Close()
	return r.Next() // want lifecycle:"after r.Close"
}

// helperClose finalizes through the package-local helper; the summaries
// pass sees through the call.
func helperClose(r *Rows) bool {
	finish(r)
	return r.Next() // want lifecycle:"after r.Close"
}

// errAfterClose is the blessed teardown: Err stays callable — clean.
func errAfterClose(r *Rows) error {
	r.Close()
	return r.Err()
}

// conditionalClose only closes on one path, so the use is not dominated by
// the kill — clean (must-analysis).
func conditionalClose(r *Rows, done bool) bool {
	if done {
		r.Close()
		return false
	}
	return r.Next()
}

// branchMerge closes on one arm only; after the merge the close is not
// guaranteed — clean.
func branchMerge(r *Rows, done bool) bool {
	if done {
		r.Close()
	}
	return r.Next()
}

// deferClose runs the Close at function exit, not here — clean.
func deferClose(r *Rows) bool {
	defer r.Close()
	return r.Next()
}
