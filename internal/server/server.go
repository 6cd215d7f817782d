// Package server implements the NeurDB wire-protocol server: one TCP
// listener multiplexing independent client connections, each with its own
// engine Session, named-statement registry and portal table. The protocol
// (internal/wire, specified in docs/PROTOCOL.md) is a PostgreSQL-style
// extended query protocol — Parse/Bind/Execute against server-side prepared
// statements backed by Session.Prepare, so remote clients share the DB-wide
// plan cache exactly like embedded callers.
//
// Result streaming rides the engine's streaming Rows cursor: data is framed
// one executor batch per DataBatch message and flushed at every batch
// boundary, so the server never materializes a result set. A client that
// disconnects mid-stream surfaces as a write error, which closes the cursor
// (Rows.Close cancels parallel workers and releases the read transaction)
// before the connection is torn down.
package server

import (
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neurdb"
	"neurdb/internal/executor"
	"neurdb/internal/rel"
	"neurdb/internal/wire"
)

// Config parameterizes a Server.
type Config struct {
	// MaxFrame bounds incoming frame payloads (default wire.DefaultMaxFrame).
	// An oversized frame is answered with a clean TOO_LARGE Error and the
	// connection stays usable.
	MaxFrame int
	// MaxConns caps concurrent client connections (0 = unlimited). A
	// connection beyond the cap gets a clean TOO_MANY_CONNS Error in
	// response to its Startup and is closed — clients can retry with
	// backoff. Cancel requests are exempt: they must get through exactly
	// when the server is busiest.
	MaxConns int
	// IdleTimeout bounds how long a connection may sit idle between
	// frames (0 = forever). A dead or stalled peer is torn down when it
	// expires, releasing its session, cursors, and prepared statements —
	// so abandoned clients cannot pin server resources indefinitely.
	IdleTimeout time.Duration
}

// Server serves a NeurDB instance over the binary wire protocol.
type Server struct {
	db  *neurdb.DB
	cfg Config

	mu       sync.Mutex
	conns    map[uint64]*conn
	nextID   uint64
	draining bool
	ln       net.Listener

	wg sync.WaitGroup
}

// New creates a server over db.
func New(db *neurdb.DB, cfg Config) *Server {
	if cfg.MaxFrame <= 0 {
		cfg.MaxFrame = wire.DefaultMaxFrame
	}
	return &Server{db: db, cfg: cfg, conns: make(map[uint64]*conn)}
}

// Serve accepts connections on ln until the listener is closed (Shutdown
// closes it). It returns nil on clean shutdown.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		netc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			draining := s.draining
			s.mu.Unlock()
			if draining || errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		c, full := s.register(netc)
		if c == nil {
			if full {
				// At MaxConns: answer the handshake with a typed refusal in
				// a short-lived goroutine (the Startup read must not block
				// the accept loop) instead of slamming the socket shut.
				go s.refuse(netc)
			} else {
				netc.Close() // raced with Shutdown
			}
			continue
		}
		go func() {
			defer s.wg.Done()
			c.run()
		}()
	}
}

// Shutdown drains the server: stop accepting, give in-flight connections up
// to grace to finish, then force-close the stragglers. It blocks until every
// connection goroutine has exited.
func (s *Server) Shutdown(grace time.Duration) {
	s.mu.Lock()
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return
	case <-time.After(grace):
	}
	// Grace expired: sever remaining connections (their goroutines unblock
	// on the closed socket and clean up sessions/cursors on the way out).
	s.mu.Lock()
	for _, c := range s.conns {
		c.netc.Close()
	}
	s.mu.Unlock()
	<-done
}

// register adds a connection with fresh cancellation credentials, or
// returns nil when the server is draining (full=false) or at MaxConns
// (full=true). The drain WaitGroup is incremented under the same mutex
// Shutdown takes to set draining, so a connection is either visible to
// wg.Wait or refused — never in between.
func (s *Server) register(netc net.Conn) (c *conn, full bool) {
	var secret [8]byte
	if _, err := rand.Read(secret[:]); err != nil {
		binary.BigEndian.PutUint64(secret[:], uint64(time.Now().UnixNano()))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, false
	}
	if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
		return nil, true
	}
	s.nextID++
	c = &conn{
		id:      s.nextID,
		secret:  binary.BigEndian.Uint64(secret[:]),
		srv:     s,
		netc:    netc,
		r:       wire.NewReader(netc, s.cfg.MaxFrame),
		w:       wire.NewWriter(netc),
		session: s.db.NewSession(),
		stmts:   make(map[string]*neurdb.Stmt),
		portals: make(map[string]*portal),
	}
	s.conns[c.id] = c
	s.wg.Add(1) // balanced by wg.Done in the connection goroutine
	return c, false
}

// refuse answers one over-capacity connection: read its first frame under a
// short deadline, pass a Cancel through (cancels must work precisely when
// the server is saturated), and answer a Startup with TOO_MANY_CONNS so the
// client fails with a typed, retryable error instead of a raw hangup.
func (s *Server) refuse(netc net.Conn) {
	defer netc.Close()
	_ = netc.SetDeadline(time.Now().Add(5 * time.Second))
	r := wire.NewReader(netc, s.cfg.MaxFrame)
	op, payload, err := r.ReadFrame()
	if err != nil {
		return
	}
	msg, err := wire.Decode(op, payload)
	if err != nil {
		return
	}
	w := wire.NewWriter(netc)
	switch m := msg.(type) {
	case *wire.Cancel:
		s.cancel(m.ConnID, m.Secret)
	case *wire.Startup:
		_ = w.WriteMsg(&wire.Error{
			Code:    wire.CodeTooManyConns,
			Message: fmt.Sprintf("server at capacity (%d connections)", s.cfg.MaxConns),
		})
		_ = w.Flush()
	}
}

// unregister removes a finished connection.
func (s *Server) unregister(c *conn) {
	s.mu.Lock()
	delete(s.conns, c.id)
	s.mu.Unlock()
}

// cancel flags the identified connection's in-flight (or next) query for
// cancellation. Bad credentials are ignored, like PostgreSQL.
func (s *Server) cancel(id, secret uint64) {
	s.mu.Lock()
	c := s.conns[id]
	s.mu.Unlock()
	if c != nil && c.secret == secret {
		c.canceled.Store(true)
	}
}

// portal is one bound (and possibly suspended) execution of a prepared
// statement.
type portal struct {
	stmt *neurdb.Stmt
	// vals holds the bound values, copied out of the Bind message (which
	// the reader reuses); args points at them one by one, the form
	// Stmt.Query takes without boxing each value.
	vals []rel.Value
	args []any
	rows *neurdb.Rows // nil until the first Execute
	// pending buffers the row read ahead to distinguish "suspended with
	// more rows" from "exactly drained" at a MaxRows boundary.
	pending rel.Row
	hasPend bool
	sent    uint64 // rows returned across Executes of this portal
}

// conn is one client connection: a session plus protocol state, driven by a
// single goroutine.
type conn struct {
	id     uint64
	secret uint64
	srv    *Server
	netc   net.Conn
	r      *wire.Reader
	w      *wire.Writer

	session *neurdb.Session
	stmts   map[string]*neurdb.Stmt
	portals map[string]*portal

	// canceled is set by Server.cancel from another goroutine; the
	// streaming loops poll it between rows, and a Sync with no portal left
	// open clears it.
	canceled atomic.Bool

	// skipToSync discards messages after an error until the client's Sync,
	// so a pipelined sequence fails as a unit.
	skipToSync bool

	// Per-connection buffers of the steady-state round trip. unnamed backs
	// the unnamed portal (the one the client driver and simple queries
	// use), rebound in place; batch collects the rows of one DataBatch and
	// is cleared after each send, so it pins no result rows between
	// statements; batchMsg and doneMsg are the outgoing messages, encoded
	// and forgotten within one send.
	unnamed  portal
	batch    []rel.Row
	batchMsg wire.DataBatch
	doneMsg  wire.CommandComplete
}

// run drives the connection to completion and releases everything it owns:
// open cursors (aborting their read transactions), prepared statements, the
// session's open transaction, and the socket.
func (c *conn) run() {
	defer func() {
		for name := range c.portals {
			c.closePortal(name)
		}
		for _, st := range c.stmts {
			st.Close()
		}
		c.session.Close()
		c.netc.Close()
		c.srv.unregister(c)
	}()

	if ok, err := c.handshake(); !ok || err != nil {
		return
	}
	for {
		// Deferred-flush policy (as in PostgreSQL): responses accumulate in
		// the write buffer while more client frames are already waiting, and
		// go out in one write when the connection is about to block. Full
		// DataBatches mid-stream still flush eagerly in stream().
		if c.r.Buffered() == 0 {
			if err := c.w.Flush(); err != nil {
				return
			}
		}
		// Idle deadline: a peer that sends nothing within the window is torn
		// down (the deferred cleanup above releases everything it pinned).
		// Re-armed before every frame, so an active connection never expires.
		if idle := c.srv.cfg.IdleTimeout; idle > 0 {
			_ = c.netc.SetReadDeadline(time.Now().Add(idle))
		}
		op, payload, err := c.r.ReadFrame()
		if err != nil {
			var tooLarge *wire.FrameTooLargeError
			if errors.As(err, &tooLarge) {
				// The payload was discarded; report and resynchronize at
				// the client's Sync instead of dropping the connection.
				c.sendError(wire.CodeTooLarge, tooLarge.Error())
				continue
			}
			return // disconnect or corrupt stream
		}
		if c.skipToSync && op != wire.OpSync && op != wire.OpTerminate {
			continue
		}
		// Hot messages decode into the reader's own values, valid until the
		// next ReadFrame: every handler below finishes with its message, or
		// copies what it keeps, before the loop reads again.
		msg, err := c.r.Decode(op, payload)
		if err != nil {
			c.sendError(wire.CodeProtocol, err.Error())
			continue
		}
		var fatal error
		switch m := msg.(type) {
		case *wire.Query:
			fatal = c.simpleQuery(m.SQL)
		case *wire.Parse:
			c.parse(m)
		case *wire.Bind:
			c.bind(m)
		case *wire.Execute:
			fatal = c.execute(m)
		case *wire.Describe:
			fatal = c.describe(m)
		case *wire.Close:
			c.closeMsg(m)
		case *wire.Sync:
			c.skipToSync = false
			// A cancel request dies with the last open portal, not with the
			// first Sync: one that lands after a chunk's last row check must
			// still stop the suspended portal when the client resumes it.
			if len(c.portals) == 0 {
				c.canceled.Store(false)
			}
			fatal = c.send(&wire.Ready{})
		case *wire.Terminate:
			return
		default:
			c.sendError(wire.CodeProtocol, fmt.Sprintf("unexpected message %T", msg))
		}
		if fatal != nil {
			return
		}
	}
}

// handshake consumes the first frame: a Startup (negotiate and answer) or a
// Cancel (apply and close).
func (c *conn) handshake() (bool, error) {
	if idle := c.srv.cfg.IdleTimeout; idle > 0 {
		_ = c.netc.SetReadDeadline(time.Now().Add(idle))
	}
	op, payload, err := c.r.ReadFrame()
	if err != nil {
		return false, err
	}
	msg, err := wire.Decode(op, payload)
	if err != nil {
		return false, err
	}
	switch m := msg.(type) {
	case *wire.Cancel:
		c.srv.cancel(m.ConnID, m.Secret)
		return false, nil // cancel connections carry nothing else
	case *wire.Startup:
		if wire.VersionMajor(m.Version) != wire.VersionMajor(wire.Version) {
			c.sendError(wire.CodeProtocol, fmt.Sprintf(
				"unsupported protocol version %s (server speaks %s)",
				wire.FormatVersion(m.Version), wire.FormatVersion(wire.Version)))
			c.w.Flush()
			return false, nil
		}
		c.send(&wire.ParameterStatus{Key: "server_version", Value: "neurdb"})
		c.send(&wire.ParameterStatus{Key: "protocol_version", Value: wire.FormatVersion(wire.Version)})
		c.send(&wire.ParameterStatus{Key: "max_frame", Value: fmt.Sprint(c.srv.cfg.MaxFrame)})
		c.send(&wire.BackendKeyData{ConnID: c.id, Secret: c.secret})
		if err := c.send(&wire.Ready{}); err != nil {
			return false, err
		}
		return true, c.w.Flush()
	default:
		c.sendError(wire.CodeProtocol, fmt.Sprintf("expected Startup, got %T", msg))
		c.w.Flush()
		return false, nil
	}
}

// send writes one message (buffered until the next flush point).
func (c *conn) send(m wire.Msg) error { return c.w.WriteMsg(m) }

// sendError reports a statement or protocol error and arms skip-to-Sync so
// the rest of a pipelined sequence is discarded.
func (c *conn) sendError(code, msg string) {
	c.skipToSync = true
	c.send(&wire.Error{Code: code, Message: msg})
}

// sendStmtError reports a statement failure with the most specific wire
// code the error maps to, so remote clients can branch on degradation
// (READ_ONLY) and overload (TIMEOUT) the same way embedded callers use
// errors.Is.
func (c *conn) sendStmtError(err error) {
	c.sendError(stmtErrCode(err), err.Error())
}

// stmtErrCode maps engine errors onto wire error codes.
func stmtErrCode(err error) string {
	switch {
	case errors.Is(err, neurdb.ErrReadOnly):
		return wire.CodeReadOnly
	case errors.Is(err, neurdb.ErrStatementTimeout):
		return wire.CodeTimeout
	default:
		return wire.CodeError
	}
}

// parse prepares a named statement through the session, putting the plan in
// the DB-wide plan cache.
func (c *conn) parse(m *wire.Parse) {
	if m.Name != "" {
		if _, dup := c.stmts[m.Name]; dup {
			c.sendError(wire.CodeError, fmt.Sprintf("prepared statement %q already exists", m.Name))
			return
		}
	}
	st, err := c.session.Prepare(m.SQL)
	if err != nil {
		c.sendError(wire.CodeError, err.Error())
		return
	}
	if old, ok := c.stmts[m.Name]; ok { // unnamed statement: silent replace
		old.Close()
	}
	c.stmts[m.Name] = st
	c.send(&wire.ParseComplete{NumParams: uint16(st.NumParams())})
}

// bind creates a portal over a prepared statement with decoded argument
// values. Execution is deferred to Execute.
func (c *conn) bind(m *wire.Bind) {
	st, ok := c.stmts[m.Stmt]
	if !ok {
		c.sendError(wire.CodeError, fmt.Sprintf("unknown prepared statement %q", m.Stmt))
		return
	}
	if len(m.Args) != st.NumParams() {
		c.sendError(wire.CodeError, fmt.Sprintf(
			"statement %q takes %d parameters, Bind carried %d", m.Stmt, st.NumParams(), len(m.Args)))
		return
	}
	c.closePortal(m.Portal) // rebinding an open portal closes its cursor
	p := c.newPortal(m.Portal)
	p.stmt = st
	p.vals = append(p.vals, m.Args...)
	for i := range p.vals {
		p.args = append(p.args, &p.vals[i])
	}
	c.portals[m.Portal] = p
	c.send(&wire.BindComplete{})
}

// newPortal returns an empty portal for name, which the caller registers.
// The unnamed portal reuses the connection's one, keeping its argument
// slices; a named portal is fresh. The name must not be open.
func (c *conn) newPortal(name string) *portal {
	if name != "" {
		return &portal{}
	}
	p := &c.unnamed
	clear(p.vals)
	clear(p.args)
	*p = portal{vals: p.vals[:0], args: p.args[:0]}
	return p
}

// execute runs (or resumes) a portal, streaming DataBatch frames flushed at
// every batch boundary. A MaxRows bound that stops early leaves the portal
// suspended. The returned error is fatal (I/O): statement failures are
// reported in-band.
func (c *conn) execute(m *wire.Execute) error {
	p, ok := c.portals[m.Portal]
	if !ok {
		c.sendError(wire.CodeError, fmt.Sprintf("unknown portal %q", m.Portal))
		return nil
	}
	if p.rows == nil {
		rows, err := p.stmt.Query(p.args...)
		if err != nil {
			delete(c.portals, m.Portal)
			c.sendStmtError(err)
			return nil
		}
		p.rows = rows
	}
	return c.stream(p, m.Portal, m.MaxRows)
}

// A DataBatch message carries at most batchRows rows — the engine's batch
// granularity — and its encoded payload is soft-capped at batchBytes, so
// batches of wide rows split instead of producing a frame beyond a client's
// ceiling; a single row larger than the cap still travels alone in an
// oversized frame.
const (
	batchRows  = executor.BatchSize
	batchBytes = 1 << 20
)

// stream pushes rows from a portal's cursor: up to maxRows (0 = all),
// framed in DataBatch messages of at most batchRows rows each. Full
// mid-stream batches are flushed eagerly so the client sees the first rows
// before the last are produced; the final partial batch and the trailing
// CommandComplete/Suspended stay buffered and ride the Ready flush at Sync
// — one socket write per round trip on the point-query hot path.
func (c *conn) stream(p *portal, name string, maxRows uint32) error {
	ncols := len(p.rows.Columns())
	if c.batch == nil {
		c.batch = make([]rel.Row, 0, batchRows)
	}
	size := 0 // encoded bytes of c.batch
	var n uint32
	for maxRows == 0 || n < maxRows {
		if c.canceled.Load() {
			c.dropBatch()
			c.closePortalNamed(name, p)
			c.sendError(wire.CodeCanceled, "query canceled")
			return nil
		}
		var row rel.Row
		switch {
		case p.hasPend:
			row, p.pending, p.hasPend = p.pending, nil, false
		case p.rows.Next():
			row = p.rows.Row()
		default: // drained (or failed)
			if err := c.sendBatch(ncols, false); err != nil {
				c.closePortalNamed(name, p)
				return err
			}
			return c.finishPortal(name, p)
		}
		c.batch = append(c.batch, row)
		size += wire.RowSize(row)
		p.sent++
		n++
		if len(c.batch) >= batchRows || size >= batchBytes {
			size = 0
			if err := c.sendBatch(ncols, true); err != nil {
				c.closePortalNamed(name, p)
				return err
			}
		}
	}
	// MaxRows reached: peek one row ahead to decide between suspension and
	// completion, so an exactly-drained portal completes in one Execute.
	if p.rows.Next() {
		p.pending, p.hasPend = p.rows.Row(), true
		if err := c.sendBatch(ncols, false); err != nil {
			c.closePortalNamed(name, p)
			return err
		}
		return c.send(&wire.Suspended{})
	}
	if err := c.sendBatch(ncols, false); err != nil {
		c.closePortalNamed(name, p)
		return err
	}
	return c.finishPortal(name, p)
}

// sendBatch frames the buffered rows as one DataBatch, then empties the
// buffer; flush pushes a mid-stream batch to the client at once.
func (c *conn) sendBatch(ncols int, flush bool) error {
	if len(c.batch) == 0 {
		return nil
	}
	c.batchMsg = wire.DataBatch{NumCols: ncols, Rows: c.batch}
	err := c.send(&c.batchMsg)
	c.batchMsg = wire.DataBatch{}
	c.dropBatch()
	if err != nil || !flush {
		return err
	}
	return c.w.Flush()
}

// dropBatch empties the row buffer without sending it, releasing its rows.
func (c *conn) dropBatch() {
	clear(c.batch)
	c.batch = c.batch[:0]
}

// finishPortal completes a drained portal: surface the cursor error if any,
// otherwise CommandComplete with the statement tag and row/affected count.
func (c *conn) finishPortal(name string, p *portal) error {
	err := p.rows.Err()
	tag := p.rows.Message()
	affected := uint64(p.rows.Affected())
	c.closePortalNamed(name, p)
	if err != nil {
		c.sendStmtError(err)
		return nil
	}
	if affected == 0 {
		affected = p.sent
	}
	c.doneMsg = wire.CommandComplete{Tag: tag, Affected: affected}
	return c.send(&c.doneMsg)
}

// closePortal closes the named portal's cursor (if open) and forgets it.
// Closing a missing portal is a no-op.
func (c *conn) closePortal(name string) {
	if p, ok := c.portals[name]; ok {
		c.closePortalNamed(name, p)
	}
}

func (c *conn) closePortalNamed(name string, p *portal) {
	if p.rows != nil {
		p.rows.Close()
		p.rows = nil
	}
	delete(c.portals, name)
}

// describe reports metadata from the compiled plan: RowDescription for every
// statement that returns rows (SELECT, PREDICT, EXPLAIN), NoData otherwise.
// Execute never announces columns; only the simple Query protocol, which has
// no Describe, sends them in-band.
func (c *conn) describe(m *wire.Describe) error {
	var st *neurdb.Stmt
	switch m.Kind {
	case wire.KindStatement:
		s, ok := c.stmts[m.Name]
		if !ok {
			c.sendError(wire.CodeError, fmt.Sprintf("unknown prepared statement %q", m.Name))
			return nil
		}
		st = s
	case wire.KindPortal:
		p, ok := c.portals[m.Name]
		if !ok || p.stmt == nil {
			c.sendError(wire.CodeError, fmt.Sprintf("unknown portal %q", m.Name))
			return nil
		}
		st = p.stmt
	default:
		c.sendError(wire.CodeProtocol, fmt.Sprintf("bad Describe kind %q", m.Kind))
		return nil
	}
	schema, err := st.ResultSchema()
	if err != nil {
		c.sendError(wire.CodeError, err.Error())
		return nil
	}
	if schema == nil {
		return c.send(&wire.NoData{})
	}
	return c.send(&wire.RowDescription{Cols: schemaCols(schema)})
}

// closeMsg handles the Close message for statements and portals.
func (c *conn) closeMsg(m *wire.Close) {
	switch m.Kind {
	case wire.KindStatement:
		if st, ok := c.stmts[m.Name]; ok {
			st.Close()
			delete(c.stmts, m.Name)
		}
	case wire.KindPortal:
		c.closePortal(m.Name)
	default:
		c.sendError(wire.CodeProtocol, fmt.Sprintf("bad Close kind %q", m.Kind))
		return
	}
	c.send(&wire.CloseComplete{})
}

// simpleQuery runs one statement through the simple protocol: parse, plan
// and execute in one shot, streaming the result. Session.Query plans the
// text through the DB-wide plan cache, keyed by the text, so a repeated
// ad-hoc statement reuses its plan as a prepared one does.
func (c *conn) simpleQuery(sql string) error {
	rows, err := c.session.Query(sql)
	if err != nil {
		c.sendStmtError(err)
		return nil
	}
	if cols := rows.Columns(); len(cols) > 0 {
		if err := c.send(&wire.RowDescription{Cols: rowsCols(rows)}); err != nil {
			rows.Close()
			return err
		}
	}
	c.closePortal("") // simple Query displaces the unnamed portal, like PG
	p := c.newPortal("")
	p.rows = rows
	c.portals[""] = p // registered so conn teardown closes it on fatal error
	return c.stream(p, "", 0)
}

// schemaCols converts an engine schema into wire column descriptors.
func schemaCols(s *rel.Schema) []wire.ColDesc {
	cols := make([]wire.ColDesc, s.Arity())
	for i, c := range s.Cols {
		cols[i] = wire.ColDesc{Name: c.Name, Type: c.Typ}
	}
	return cols
}

// rowsCols builds column descriptors for a cursor: typed when the engine
// exposes a schema (streamed SELECTs), dynamically typed otherwise.
func rowsCols(rows *neurdb.Rows) []wire.ColDesc {
	names := rows.Columns()
	cols := make([]wire.ColDesc, len(names))
	schema := rows.Schema()
	for i, n := range names {
		cols[i] = wire.ColDesc{Name: n}
		if schema != nil && i < schema.Arity() {
			cols[i].Type = schema.Col(i).Typ
		}
	}
	return cols
}
