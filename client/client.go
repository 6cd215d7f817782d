// Package client is the native Go driver for a networked NeurDB server.
// It speaks the binary wire protocol (docs/PROTOCOL.md): simple one-shot
// queries, and server-side prepared statements (Parse/Bind/Execute) whose
// plans live in the server's DB-wide plan cache, so repeated parameterized
// statements pay parse-and-plan once per catalog version, not per call.
//
// Results stream: Rows pulls one DataBatch frame at a time and, with a
// fetch size configured, the server suspends the portal between chunks so
// closing a cursor early abandons the remaining rows without transferring
// them.
//
// The package also registers a database/sql driver named "neurdb":
//
//	db, err := sql.Open("neurdb", "127.0.0.1:5433")
//	stmt, err := db.Prepare(`SELECT val FROM kv WHERE id = ?`)
//	rows, err := stmt.Query(42)
//
// A Conn is not safe for concurrent use; database/sql's pool provides
// one Conn per active operation.
package client

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"neurdb/internal/rel"
	"neurdb/internal/wire"
)

// Options configures Connect.
type Options struct {
	// FetchSize is the per-Execute row bound for Stmt.Query cursors.
	// 0 means DefaultFetchSize (chunked, so Rows.Close can abandon a large
	// result without transferring the tail); a negative value disables
	// chunking and streams the whole result in one Execute.
	FetchSize int
	// DialTimeout bounds the TCP connect (0 = no timeout). Cancel's
	// side-channel connection reuses the same bound.
	DialTimeout time.Duration
	// MaxFrame bounds incoming frame payloads (default wire.DefaultMaxFrame).
	MaxFrame int
	// RetryBackoff, when positive, retries transient connect failures
	// (dial errors, the server's TOO_MANY_CONNS refusal) with capped
	// exponential backoff starting at this delay. Only Connect and Ping
	// ever retry: a statement is NEVER silently re-executed — the client
	// cannot know whether the server applied it before the failure.
	RetryBackoff time.Duration
	// RetryAttempts caps the retries RetryBackoff performs (default 4;
	// ignored while RetryBackoff is 0).
	RetryAttempts int
}

// maxRetryBackoff caps the exponential backoff delay between retries.
const maxRetryBackoff = 2 * time.Second

// DefaultFetchSize is the default Stmt.Query chunk size: a few executor
// batches per round trip amortizes protocol overhead while keeping early
// Close cheap.
const DefaultFetchSize = 4096

// Error is a server-reported failure (statement or protocol level).
type Error struct {
	Code    string
	Message string
}

func (e *Error) Error() string { return "neurdb: " + e.Message }

// Result is the outcome of a statement executed without streaming.
type Result struct {
	// Tag is the server's completion tag ("INSERT 3", "CREATE TABLE", "";
	// empty for plain SELECTs).
	Tag string
	// Affected is the affected-row count for DML, or the returned-row
	// count for drained SELECTs.
	Affected int64
}

// Conn is one client connection: a wire socket plus its server-side
// session (prepared statements and portals are per-connection).
type Conn struct {
	netc net.Conn
	r    *wire.Reader
	w    *wire.Writer

	connID uint64
	secret uint64
	addr   string
	params map[string]string
	opts   Options

	fetchSize int
	stmtSeq   int
	rows      *Rows // active cursor; must finish before the next command
	closed    bool
	fatal     error // sticky connection-level failure

	// Reused by every Stmt.Query: the converted arguments and the Bind and
	// Execute messages, encoded into the write buffer and then forgotten.
	args []rel.Value
	bind wire.Bind
	exec wire.Execute
}

// Connect dials a NeurDB server with default options.
func Connect(addr string) (*Conn, error) { return ConnectOptions(addr, Options{}) }

// ConnectOptions dials a NeurDB server and performs the startup handshake.
// With Options.RetryBackoff set, transient failures (dial errors and the
// server's at-capacity refusal) are retried with capped exponential backoff.
func ConnectOptions(addr string, o Options) (*Conn, error) {
	if o.FetchSize == 0 {
		o.FetchSize = DefaultFetchSize
	}
	c, err := connectOnce(addr, o)
	for attempt := 0; err != nil && retryableConnect(err) && o.RetryBackoff > 0 && attempt < retryAttempts(o); attempt++ {
		time.Sleep(backoffDelay(o.RetryBackoff, attempt))
		c, err = connectOnce(addr, o)
	}
	return c, err
}

// retryAttempts resolves the retry budget.
func retryAttempts(o Options) int {
	if o.RetryAttempts > 0 {
		return o.RetryAttempts
	}
	return 4
}

// backoffDelay is the capped exponential schedule: base, 2·base, 4·base, …
func backoffDelay(base time.Duration, attempt int) time.Duration {
	d := base << uint(attempt)
	if d > maxRetryBackoff || d <= 0 {
		d = maxRetryBackoff
	}
	return d
}

// retryableConnect reports whether a Connect failure is safe and useful to
// retry: network-level dial/handshake errors and the server's typed
// at-capacity refusal. A protocol-version mismatch or any other server
// error is permanent.
func retryableConnect(err error) bool {
	var srvErr *Error
	if errors.As(err, &srvErr) {
		return srvErr.Code == wire.CodeTooManyConns
	}
	return true // dial / IO errors
}

// connectOnce performs one dial + startup handshake.
func connectOnce(addr string, o Options) (*Conn, error) {
	netc, err := net.DialTimeout("tcp", addr, o.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("neurdb: connect %s: %w", addr, err)
	}
	c := &Conn{
		netc:      netc,
		r:         wire.NewReader(netc, o.MaxFrame),
		w:         wire.NewWriter(netc),
		addr:      addr,
		params:    make(map[string]string),
		fetchSize: o.FetchSize,
		opts:      o,
	}
	if err := c.w.WriteMsg(&wire.Startup{Version: wire.Version}); err != nil {
		netc.Close()
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		netc.Close()
		return nil, err
	}
	// Startup response: ParameterStatus*, BackendKeyData, Ready.
	for {
		msg, err := c.read()
		if err != nil {
			netc.Close()
			return nil, err
		}
		switch m := msg.(type) {
		case *wire.ParameterStatus:
			c.params[m.Key] = m.Value
		case *wire.BackendKeyData:
			c.connID, c.secret = m.ConnID, m.Secret
		case *wire.Ready:
			return c, nil
		case *wire.Error:
			netc.Close()
			return nil, &Error{Code: m.Code, Message: m.Message}
		default:
			netc.Close()
			return nil, fmt.Errorf("neurdb: unexpected startup message %T", msg)
		}
	}
}

// ServerParam returns a server-reported startup setting ("server_version",
// "protocol_version", "max_frame").
func (c *Conn) ServerParam(key string) string { return c.params[key] }

// Close terminates the connection cleanly.
func (c *Conn) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.fatal == nil {
		c.w.WriteMsg(&wire.Terminate{})
		c.w.Flush()
	}
	return c.netc.Close()
}

// Ping verifies the connection is alive with an empty command sequence.
// With Options.RetryBackoff set, a failed round trip is retried over a
// fresh connection (replacing this Conn's socket) — safe because an empty
// Sync sequence executes nothing.
func (c *Conn) Ping() error {
	err := c.pingOnce()
	if err == nil || c.opts.RetryBackoff <= 0 || c.closed {
		return err
	}
	for attempt := 0; attempt < retryAttempts(c.opts); attempt++ {
		time.Sleep(backoffDelay(c.opts.RetryBackoff, attempt))
		nc, cerr := connectOnce(c.addr, c.opts)
		if cerr != nil {
			err = cerr
			if !retryableConnect(cerr) {
				return err
			}
			continue
		}
		// Adopt the fresh connection in place (old socket, server session,
		// and cancellation credentials are gone; prepared statements on the
		// old session are invalid, as after any reconnect).
		c.netc.Close()
		c.netc, c.r, c.w = nc.netc, nc.r, nc.w
		c.connID, c.secret, c.params = nc.connID, nc.secret, nc.params
		c.fatal, c.rows = nil, nil
		return c.pingOnce()
	}
	return err
}

// pingOnce performs one empty Sync round trip.
func (c *Conn) pingOnce() error {
	if err := c.ready(); err != nil {
		return err
	}
	if err := c.w.WriteMsg(&wire.Sync{}); err != nil {
		return c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	_, err := c.readUntilReady(nil)
	return err
}

// Cancel asks the server to cancel this connection's in-flight query. Like
// PostgreSQL it opens a separate connection carrying the backend key, so it
// may be called from another goroutine while this Conn is streaming. It
// returns once the server has applied the cancel: the server closes the
// side connection only after setting the flag, and Cancel reads until then
// (as libpq's PQcancel does), so a fetch issued after Cancel returns fails
// instead of racing the cancel for the rest of the result.
func (c *Conn) Cancel() error {
	// The side channel honors the connection's own DialTimeout, for the dial
	// and again for the exchange; the historical 5s bound only remains as
	// the default for unset options.
	dialTimeout := c.opts.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 5 * time.Second
	}
	netc, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return err
	}
	defer netc.Close()
	_ = netc.SetDeadline(time.Now().Add(dialTimeout))
	w := wire.NewWriter(netc)
	if err := w.WriteMsg(&wire.Cancel{ConnID: c.connID, Secret: c.secret}); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, netc) // nil at EOF: the server is done
	return err
}

// Exec executes a statement and drains its result. With args it uses the
// extended protocol through the unnamed prepared statement; without, the
// simple protocol.
func (c *Conn) Exec(sql string, args ...any) (*Result, error) {
	rows, err := c.Query(sql, args...)
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// Query executes a statement and returns a streaming cursor. With args it
// Parse/Bind/Executes the unnamed statement; without, it uses the simple
// protocol (one round trip; the server still plans the text through the
// shared plan cache, keyed by the text).
func (c *Conn) Query(sql string, args ...any) (*Rows, error) {
	if len(args) == 0 {
		return c.simpleQuery(sql)
	}
	st, err := c.prepareAs("", sql)
	if err != nil {
		return nil, err
	}
	return st.Query(args...)
}

// Prepare creates a server-side prepared statement. The plan is compiled
// once into the server's shared plan cache; each Stmt.Query/Exec only binds
// parameters and executes.
func (c *Conn) Prepare(sql string) (*Stmt, error) {
	c.stmtSeq++
	return c.prepareAs("s"+strconv.Itoa(c.stmtSeq), sql)
}

// prepareAs issues Parse+Describe+Sync for the given statement name.
func (c *Conn) prepareAs(name, sql string) (*Stmt, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	c.w.WriteMsg(&wire.Parse{Name: name, SQL: sql})
	c.w.WriteMsg(&wire.Describe{Kind: wire.KindStatement, Name: name})
	if err := c.sync(); err != nil {
		return nil, err
	}
	st := &Stmt{conn: c, name: name, sql: sql}
	_, err := c.readUntilReady(func(msg wire.Msg) error {
		switch m := msg.(type) {
		case *wire.ParseComplete:
			st.numParams = int(m.NumParams)
		case *wire.RowDescription:
			st.cols = colNames(m.Cols)
			st.types = colTypes(m.Cols)
		case *wire.NoData:
		default:
			return fmt.Errorf("neurdb: unexpected %T during Prepare", msg)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return st, nil
}

// simpleQuery runs one statement through the simple protocol and returns a
// cursor over the streamed response.
func (c *Conn) simpleQuery(sql string) (*Rows, error) {
	if err := c.ready(); err != nil {
		return nil, err
	}
	c.w.WriteMsg(&wire.Query{SQL: sql})
	if err := c.sync(); err != nil {
		return nil, err
	}
	rows := &Rows{conn: c}
	c.rows = rows
	return rows, nil
}

// execute sends Execute on the unnamed portal, bounded by maxRows, and Sync.
func (c *Conn) execute(maxRows uint32) error {
	c.exec = wire.Execute{Portal: "", MaxRows: maxRows}
	c.w.WriteMsg(&c.exec)
	return c.sync()
}

// sync terminates a pipelined sequence and flushes it to the server.
func (c *Conn) sync() error {
	if err := c.w.WriteMsg(&wire.Sync{}); err != nil {
		return c.fail(err)
	}
	if err := c.w.Flush(); err != nil {
		return c.fail(err)
	}
	return nil
}

// ready verifies the connection is idle and usable.
func (c *Conn) ready() error {
	if c.fatal != nil {
		return c.fatal
	}
	if c.closed {
		return fmt.Errorf("neurdb: connection is closed")
	}
	if c.rows != nil {
		return fmt.Errorf("neurdb: connection has an open result cursor; Close it first")
	}
	return nil
}

// fail records a connection-level failure; the Conn is unusable afterwards.
func (c *Conn) fail(err error) error {
	if c.fatal == nil {
		c.fatal = err
	}
	return err
}

// read decodes the next server frame. An oversized frame was already
// discarded by the reader — the stream stays synchronized — so it surfaces
// as a recoverable *wire.FrameTooLargeError instead of poisoning the
// connection. A DataBatch or CommandComplete is the reader's own value,
// valid until the next read: Rows keeps a batch's rows only while it walks
// them, and hands the caller copies (Scan, Values, RowText).
func (c *Conn) read() (wire.Msg, error) {
	op, payload, err := c.r.ReadFrame()
	if err != nil {
		var tooLarge *wire.FrameTooLargeError
		if errors.As(err, &tooLarge) {
			return nil, tooLarge
		}
		return nil, c.fail(err)
	}
	return c.r.Decode(op, payload)
}

// readUntilReady consumes server messages until Ready, dispatching each to
// visit (when non-nil). A server Error is captured and returned after the
// stream reaches Ready, so the connection stays synchronized.
func (c *Conn) readUntilReady(visit func(wire.Msg) error) (*wire.Ready, error) {
	var srvErr error
	var visitErr error
	for {
		msg, err := c.read()
		if err != nil {
			var tooLarge *wire.FrameTooLargeError
			if errors.As(err, &tooLarge) {
				// Frame dropped but the stream is intact: finish the
				// sequence and report the loss.
				if srvErr == nil {
					srvErr = &Error{Code: wire.CodeTooLarge, Message: err.Error() + "; raise Options.MaxFrame"}
				}
				continue
			}
			return nil, err
		}
		switch m := msg.(type) {
		case *wire.Ready:
			if srvErr != nil {
				return nil, srvErr
			}
			if visitErr != nil {
				return nil, visitErr
			}
			return m, nil
		case *wire.Error:
			srvErr = &Error{Code: m.Code, Message: m.Message}
		default:
			if srvErr == nil && visitErr == nil && visit != nil {
				visitErr = visit(msg)
			}
		}
	}
}

// Stmt is a server-side prepared statement.
type Stmt struct {
	conn      *Conn
	name      string
	sql       string
	numParams int
	cols      []string
	types     []rel.Type
	closed    bool
}

// NumParams returns the number of parameters the statement takes.
func (st *Stmt) NumParams() int { return st.numParams }

// Columns returns the result column names (nil for statements that return
// no rows).
func (st *Stmt) Columns() []string { return st.cols }

// Exec runs the statement with args and drains the result.
func (st *Stmt) Exec(args ...any) (*Result, error) {
	rows, err := st.query(args, 0) // no suspension: drain in one Execute
	if err != nil {
		return nil, err
	}
	return rows.drain()
}

// Query runs the statement with args and returns a streaming cursor. The
// connection's fetch size bounds each round trip; the server suspends the
// portal between chunks. A negative fetch size streams the whole result
// in one unsuspended Execute.
func (st *Stmt) Query(args ...any) (*Rows, error) {
	fetch := st.conn.fetchSize
	if fetch < 0 {
		fetch = 0
	}
	return st.query(args, uint32(fetch))
}

func (st *Stmt) query(args []any, fetch uint32) (*Rows, error) {
	c := st.conn
	if st.closed {
		return nil, fmt.Errorf("neurdb: statement is closed")
	}
	if err := c.ready(); err != nil {
		return nil, err
	}
	vals, err := convertArgs(c.args[:0], args)
	if err != nil {
		return nil, err
	}
	c.bind = wire.Bind{Portal: "", Stmt: st.name, Args: vals}
	c.w.WriteMsg(&c.bind)
	clear(vals) // the encoded frame holds the values now; keep no TEXT alive
	c.args, c.bind = vals[:0], wire.Bind{}
	if err := c.execute(fetch); err != nil {
		return nil, err
	}
	rows := &Rows{conn: c, cols: st.cols, types: st.types, fetch: fetch}
	c.rows = rows
	return rows, nil
}

// Close releases the server-side statement. Closing while the connection
// has an open cursor fails without marking the statement closed, so it can
// be retried after the cursor is released.
func (st *Stmt) Close() error {
	if st.closed {
		return nil
	}
	c := st.conn
	if err := c.ready(); err != nil {
		return err
	}
	st.closed = true
	c.w.WriteMsg(&wire.Close{Kind: wire.KindStatement, Name: st.name})
	if err := c.sync(); err != nil {
		return err
	}
	_, err := c.readUntilReady(nil)
	return err
}

// Rows is a streaming result cursor over the wire. It reads DataBatch
// frames on demand — at most one batch is buffered — and requests the next
// chunk when a fetch-size-bounded portal suspends. Close before the chunk
// is exhausted closes the server portal instead of transferring the rest.
type Rows struct {
	conn  *Conn
	cols  []string
	types []rel.Type
	fetch uint32 // 0 = whole result in one Execute

	batch []rel.Row
	pos   int
	cur   rel.Row

	tag      string
	affected uint64

	// state: streaming -> suspended (awaiting next Execute) -> done
	suspended bool
	done      bool
	err       error
}

// Columns returns the result column names.
func (r *Rows) Columns() []string { return r.cols }

// Tag returns the server's completion tag (valid once Next returned false).
func (r *Rows) Tag() string { return r.tag }

// Affected returns the affected/returned row count (valid once Next
// returned false).
func (r *Rows) Affected() int64 { return int64(r.affected) }

// Err returns the first error encountered while streaming.
func (r *Rows) Err() error {
	if r.err != nil {
		return r.err
	}
	return nil
}

// Next advances to the next row, fetching frames (and follow-up chunks for
// suspended portals) as needed.
func (r *Rows) Next() bool {
	for {
		if r.err != nil || (r.done && r.pos >= len(r.batch)) {
			r.cur = nil
			return false
		}
		if r.pos < len(r.batch) {
			r.cur = r.batch[r.pos]
			r.pos++
			return true
		}
		if r.suspended {
			if err := r.resume(); err != nil {
				r.setErr(err)
				return false
			}
			continue
		}
		if err := r.fill(); err != nil {
			r.setErr(err)
			return false
		}
	}
}

// fill reads frames until a DataBatch, CommandComplete or Suspended.
func (r *Rows) fill() error {
	c := r.conn
	for {
		msg, err := c.read()
		if err != nil {
			var tooLarge *wire.FrameTooLargeError
			if errors.As(err, &tooLarge) {
				// The oversized frame (likely a DataBatch of very wide
				// rows) was discarded with the stream intact: drain the
				// sequence so the connection stays usable, then error
				// this cursor only.
				r.finishStream()
				return &Error{Code: wire.CodeTooLarge, Message: err.Error() + "; raise Options.MaxFrame"}
			}
			return err
		}
		switch m := msg.(type) {
		case *wire.BindComplete:
		case *wire.RowDescription: // simple protocol announces columns in-band
			r.cols = colNames(m.Cols)
			r.types = colTypes(m.Cols)
		case *wire.NoData:
		case *wire.DataBatch:
			r.batch, r.pos = m.Rows, 0
			if len(m.Rows) > 0 {
				return nil
			}
		case *wire.Suspended:
			// Chunk finished with rows remaining: consume the Ready for
			// this sequence, then resume on demand.
			if _, err := c.readUntilReady(nil); err != nil {
				return err
			}
			r.suspended = true
			return nil
		case *wire.CommandComplete:
			r.tag, r.affected = m.Tag, m.Affected
			r.finishStream()
			return nil
		case *wire.Error:
			// Drain to Ready so the connection stays usable, then surface.
			c.rows = nil
			r.done = true
			if _, err := c.readUntilReady(nil); err != nil {
				return err
			}
			return &Error{Code: m.Code, Message: m.Message}
		default:
			return fmt.Errorf("neurdb: unexpected %T while streaming", msg)
		}
	}
}

// resume requests the next chunk of a suspended portal.
func (r *Rows) resume() error {
	r.suspended = false
	return r.conn.execute(r.fetch)
}

// finishStream consumes the trailing Ready and releases the connection.
func (r *Rows) finishStream() {
	r.done = true
	if _, err := r.conn.readUntilReady(nil); err != nil && r.err == nil {
		r.err = err
	}
	r.conn.rows = nil
}

func (r *Rows) setErr(err error) {
	if r.err == nil {
		r.err = err
	}
	r.cur = nil
	r.done = true
	if r.conn.rows == r {
		r.conn.rows = nil
	}
}

// Close releases the cursor. A cursor abandoned mid-stream drains the
// current chunk; a suspended portal is closed server-side without
// transferring its remaining rows. Close is idempotent; after it, Next is
// false and Scan has no current row.
func (r *Rows) Close() error {
	r.cur = nil
	if r.done && !r.suspended {
		return r.errOrNil()
	}
	// Drain the in-flight chunk (bounded by the fetch size).
	for !r.done && !r.suspended {
		if err := r.fill(); err != nil {
			r.setErr(err)
			return r.errOrNil()
		}
		r.batch, r.pos = nil, 0
	}
	if r.suspended {
		r.suspended = false
		r.done = true
		c := r.conn
		c.rows = nil
		c.w.WriteMsg(&wire.Close{Kind: wire.KindPortal, Name: ""})
		if err := c.sync(); err != nil {
			r.setErr(err)
			return r.errOrNil()
		}
		if _, err := c.readUntilReady(nil); err != nil {
			r.setErr(err)
		}
	}
	return r.errOrNil()
}

func (r *Rows) errOrNil() error {
	// A cursor closed after a clean stream reports no error.
	return r.err
}

// Scan copies the current row into dest, one target per column. Supported
// targets: *int, *int64, *float64, *string, *bool, *any. SQL NULL scans as
// the target's zero value (nil for *any).
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

// Values returns the current row as Go-native values (nil, int64, float64,
// string, bool), valid after Next returned true.
func (r *Rows) Values() []any {
	if r.cur == nil {
		return nil
	}
	out := make([]any, len(r.cur))
	for i, v := range r.cur {
		out[i] = v.GoValue()
	}
	return out
}

// RowText renders the current row exactly as the embedded engine's
// Row.String() does — the differential contract between remote and
// embedded results.
func (r *Rows) RowText() string {
	if r.cur == nil {
		return ""
	}
	parts := make([]string, len(r.cur))
	for i, v := range r.cur {
		parts[i] = v.String()
	}
	return strings.Join(parts, ", ")
}

// drain consumes all rows and returns the completion Result.
func (r *Rows) drain() (*Result, error) {
	for r.Next() {
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if r.err != nil {
		return nil, r.err
	}
	return &Result{Tag: r.tag, Affected: int64(r.affected)}, nil
}

// colNames extracts names from wire column descriptors.
func colNames(cols []wire.ColDesc) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = c.Name
	}
	return out
}

// colTypes extracts type hints from wire column descriptors.
func colTypes(cols []wire.ColDesc) []rel.Type {
	out := make([]rel.Type, len(cols))
	for i, c := range cols {
		out[i] = c.Type
	}
	return out
}

// convertArgs appends Go arguments to dst as wire values through the
// engine's shared conversion table (rel.FromGo), so binding behaves
// identically embedded and over the wire.
func convertArgs(dst []rel.Value, args []any) ([]rel.Value, error) {
	for i, a := range args {
		v, err := rel.FromGo(a)
		if err != nil {
			return nil, fmt.Errorf("neurdb: argument %d: %w", i+1, err)
		}
		dst = append(dst, v)
	}
	return dst, nil
}
