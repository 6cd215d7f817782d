package wire

import (
	"encoding/binary"
	"fmt"
	"sort"

	"neurdb/internal/rel"
)

// Msg is one protocol message. Encoding appends the payload (without the
// frame header) to dst; Decode reverses it given the opcode.
type Msg interface {
	op() Op
	encode(dst []byte) []byte
}

// Describe/Close target kinds.
const (
	KindStatement byte = 'S'
	KindPortal    byte = 'P'
)

// Error codes carried by the Error message. Codes are coarse — clients
// branch on them to distinguish statement failures from protocol misuse.
const (
	CodeError    = "ERROR"     // statement-level failure (parse, bind, execution)
	CodeProtocol = "PROTOCOL"  // protocol violation (unknown opcode, bad sequence)
	CodeTooLarge = "TOO_LARGE" // frame exceeded the server's size limit
	CodeCanceled = "CANCELED"  // query canceled via a Cancel request
	// CodeReadOnly: the server's WAL has poisoned and the database degraded
	// to read-only — reads keep serving, writes fail until a restart.
	CodeReadOnly = "READ_ONLY"
	// CodeTooManyConns: the server is at Config.MaxConns; sent in response
	// to Startup before the connection is closed. Clients may retry with
	// backoff (the connection was refused, nothing executed).
	CodeTooManyConns = "TOO_MANY_CONNS"
	// CodeTimeout: the statement exceeded the server's statement timeout
	// and was stopped at a batch boundary (partial rows may have streamed,
	// same as CANCELED).
	CodeTimeout = "TIMEOUT"
)

// ---- client messages ----

// Startup opens a connection: protocol version plus string options.
type Startup struct {
	Version uint32
	Options map[string]string
}

// Query executes one SQL statement through the simple protocol: the server
// parses, plans and runs it, streaming RowDescription/DataBatch/
// CommandComplete and finishing with Ready.
type Query struct{ SQL string }

// Parse prepares a named statement server-side (name "" is the unnamed
// statement, silently replaced by the next Parse).
type Parse struct {
	Name string
	SQL  string
}

// Bind creates (or replaces) a portal binding parameter values to a
// prepared statement.
type Bind struct {
	Portal string
	Stmt   string
	Args   []rel.Value
}

// Execute runs a portal. MaxRows bounds the rows returned in this call
// (0 = stream everything); a bounded Execute that stops early leaves the
// portal suspended for a later Execute or Close.
type Execute struct {
	Portal  string
	MaxRows uint32
}

// Describe requests metadata for a statement (KindStatement) or portal
// (KindPortal): RowDescription for row-returning statements, NoData
// otherwise.
type Describe struct {
	Kind byte
	Name string
}

// Close destroys a statement or portal. Closing a name that does not exist
// is not an error.
type Close struct {
	Kind byte
	Name string
}

// Sync ends an extended-query sequence; the server replies Ready. After an
// error in extended mode the server discards messages until Sync.
type Sync struct{}

// Terminate announces a clean client shutdown.
type Terminate struct{}

// Cancel, sent as the first frame of a fresh connection instead of
// Startup, asks the server to cancel the in-flight or suspended query of
// the connection identified by the BackendKeyData credentials.
type Cancel struct {
	ConnID uint64
	Secret uint64
}

// ---- server messages ----

// Ready signals the server finished a command sequence.
type Ready struct{}

// Error reports a failure. Statement errors keep the connection usable;
// after one in extended mode the server skips to the next Sync.
type Error struct {
	Code    string
	Message string
}

// ParameterStatus reports one server setting during startup.
type ParameterStatus struct {
	Key   string
	Value string
}

// BackendKeyData carries the credentials a Cancel request must echo.
type BackendKeyData struct {
	ConnID uint64
	Secret uint64
}

// ParseComplete acknowledges Parse, reporting the statement's parameter
// count.
type ParseComplete struct{ NumParams uint16 }

// BindComplete acknowledges Bind.
type BindComplete struct{}

// CloseComplete acknowledges Close.
type CloseComplete struct{}

// ColDesc describes one result column. Type is a hint (rel.TypeNull means
// dynamically typed); every value on the wire is self-describing.
type ColDesc struct {
	Name string
	Type rel.Type
}

// RowDescription announces the result shape ahead of DataBatch frames.
type RowDescription struct{ Cols []ColDesc }

// NoData announces that a described statement returns no rows.
type NoData struct{}

// DataBatch carries one executor batch of rows, column-major: ncols, nrows,
// then for each column its nrows values in rel's self-delimiting value
// encoding (NULLs included). Row-major order is reconstructed client-side.
type DataBatch struct {
	NumCols int
	Rows    []rel.Row
}

// CommandComplete finishes a statement: a human-readable tag ("INSERT 3",
// "CREATE TABLE", "" for plain SELECT) plus the affected/returned row count.
type CommandComplete struct {
	Tag      string
	Affected uint64
}

// Suspended reports that Execute stopped at its MaxRows bound with rows
// remaining; the portal stays open.
type Suspended struct{}

// ---- encoding ----

func appendU16(dst []byte, v uint16) []byte {
	return append(dst, byte(v>>8), byte(v))
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func appendU64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

func (m *Startup) op() Op { return OpStartup }
func (m *Startup) encode(dst []byte) []byte {
	dst = appendU32(dst, m.Version)
	dst = appendU16(dst, uint16(len(m.Options)))
	// Sorted keys keep the encoding byte-identical across runs; map order
	// would leak Go's per-process iteration randomization onto the wire.
	keys := make([]string, 0, len(m.Options))
	for k := range m.Options {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst = appendString(dst, k)
		dst = appendString(dst, m.Options[k])
	}
	return dst
}

func (m *Query) op() Op                   { return OpQuery }
func (m *Query) encode(dst []byte) []byte { return appendString(dst, m.SQL) }

func (m *Parse) op() Op { return OpParse }
func (m *Parse) encode(dst []byte) []byte {
	dst = appendString(dst, m.Name)
	return appendString(dst, m.SQL)
}

func (m *Bind) op() Op { return OpBind }
func (m *Bind) encode(dst []byte) []byte {
	dst = appendString(dst, m.Portal)
	dst = appendString(dst, m.Stmt)
	dst = appendU16(dst, uint16(len(m.Args)))
	for _, v := range m.Args {
		dst = rel.EncodeValue(dst, v)
	}
	return dst
}

func (m *Execute) op() Op { return OpExecute }
func (m *Execute) encode(dst []byte) []byte {
	dst = appendString(dst, m.Portal)
	return appendU32(dst, m.MaxRows)
}

func (m *Describe) op() Op { return OpDescribe }
func (m *Describe) encode(dst []byte) []byte {
	dst = append(dst, m.Kind)
	return appendString(dst, m.Name)
}

func (m *Close) op() Op { return OpClose }
func (m *Close) encode(dst []byte) []byte {
	dst = append(dst, m.Kind)
	return appendString(dst, m.Name)
}

func (m *Sync) op() Op                   { return OpSync }
func (m *Sync) encode(dst []byte) []byte { return dst }

func (m *Terminate) op() Op                   { return OpTerminate }
func (m *Terminate) encode(dst []byte) []byte { return dst }

func (m *Cancel) op() Op { return OpCancel }
func (m *Cancel) encode(dst []byte) []byte {
	dst = appendU64(dst, m.ConnID)
	return appendU64(dst, m.Secret)
}

func (m *Ready) op() Op                   { return OpReady }
func (m *Ready) encode(dst []byte) []byte { return dst }

func (m *Error) op() Op { return OpError }
func (m *Error) encode(dst []byte) []byte {
	dst = appendString(dst, m.Code)
	return appendString(dst, m.Message)
}

func (m *ParameterStatus) op() Op { return OpParameterStatus }
func (m *ParameterStatus) encode(dst []byte) []byte {
	dst = appendString(dst, m.Key)
	return appendString(dst, m.Value)
}

func (m *BackendKeyData) op() Op { return OpBackendKeyData }
func (m *BackendKeyData) encode(dst []byte) []byte {
	dst = appendU64(dst, m.ConnID)
	return appendU64(dst, m.Secret)
}

func (m *ParseComplete) op() Op                   { return OpParseComplete }
func (m *ParseComplete) encode(dst []byte) []byte { return appendU16(dst, m.NumParams) }

func (m *BindComplete) op() Op                   { return OpBindComplete }
func (m *BindComplete) encode(dst []byte) []byte { return dst }

func (m *CloseComplete) op() Op                   { return OpCloseComplete }
func (m *CloseComplete) encode(dst []byte) []byte { return dst }

func (m *RowDescription) op() Op { return OpRowDescription }
func (m *RowDescription) encode(dst []byte) []byte {
	dst = appendU16(dst, uint16(len(m.Cols)))
	for _, c := range m.Cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Type))
	}
	return dst
}

func (m *NoData) op() Op                   { return OpNoData }
func (m *NoData) encode(dst []byte) []byte { return dst }

func (m *DataBatch) op() Op { return OpDataBatch }
func (m *DataBatch) encode(dst []byte) []byte {
	dst = appendU16(dst, uint16(m.NumCols))
	dst = appendU32(dst, uint32(len(m.Rows)))
	// Column-major: each column's values are stored contiguously, so a
	// future non-Go client can decode straight into columnar buffers.
	for c := 0; c < m.NumCols; c++ {
		for _, row := range m.Rows {
			dst = rel.EncodeValue(dst, row[c])
		}
	}
	return dst
}

// RowSize returns the encoded size of one row inside a DataBatch payload.
// Servers use it to bound frame sizes in bytes as well as rows, so a batch
// of wide rows never exceeds a client's frame ceiling.
func RowSize(r rel.Row) int {
	n := 0
	for _, v := range r {
		n++ // type tag
		switch v.Type() {
		case rel.TypeNull:
			// The tag byte alone: NULL carries no payload.
		case rel.TypeInt, rel.TypeFloat:
			n += 8
		case rel.TypeText:
			n += 4 + len(v.String())
		case rel.TypeBool:
			n++
		}
	}
	return n
}

func (m *CommandComplete) op() Op { return OpCommandComplete }
func (m *CommandComplete) encode(dst []byte) []byte {
	dst = appendString(dst, m.Tag)
	return appendU64(dst, m.Affected)
}

func (m *Suspended) op() Op                   { return OpSuspended }
func (m *Suspended) encode(dst []byte) []byte { return dst }

// ---- decoding ----

// dec is a cursor over a frame payload; the first failure sticks.
type dec struct {
	b   []byte
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 1 {
		d.fail("short payload reading byte")
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *dec) u16() uint16 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 2 {
		d.fail("short payload reading uint16")
		return 0
	}
	v := binary.BigEndian.Uint16(d.b)
	d.b = d.b[2:]
	return v
}

func (d *dec) u32() uint32 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 4 {
		d.fail("short payload reading uint32")
		return 0
	}
	v := binary.BigEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *dec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.b) < 8 {
		d.fail("short payload reading uint64")
		return 0
	}
	v := binary.BigEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

// bytes reads a length-prefixed byte string, aliasing the payload.
func (d *dec) bytes() []byte {
	n := d.u32()
	if d.err != nil {
		return nil
	}
	if uint32(len(d.b)) < n {
		d.fail("short payload reading string of %d bytes", n)
		return nil
	}
	b := d.b[:n]
	d.b = d.b[n:]
	return b
}

func (d *dec) str() string { return string(d.bytes()) }

// strLike reads a string into a field that may already hold it: when the
// bytes equal prev, prev is returned instead of a fresh copy, so a reused
// message repeating its statement name or completion tag allocates nothing.
func (d *dec) strLike(prev string) string {
	b := d.bytes()
	if string(b) == prev {
		return prev
	}
	return string(b)
}

func (d *dec) value() rel.Value {
	if d.err != nil {
		return rel.Value{}
	}
	v, used, err := rel.DecodeValue(d.b)
	if err != nil {
		d.fail("decode value: %v", err)
		return rel.Value{}
	}
	d.b = d.b[used:]
	return v
}

func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(d.b))
	}
	return nil
}

// reused holds a Reader's decode targets for the opcodes of a steady-state
// round trip (see Reader.Decode). args, rows and slab keep their backing
// arrays across messages; the length each last had marks what the next
// decode must clear, so a shorter message leaves no stale value reachable.
type reused struct {
	bind  Bind
	exec  Execute
	batch DataBatch
	done  CommandComplete
	args  []rel.Value
	rows  []rel.Row
	slab  []rel.Value
}

// maxReusedValues bounds the DataBatch value slab a Reader keeps between
// messages: a full executor batch of a wide result fits (256 rows of 256
// columns), while a frame claiming millions of values is decoded into
// memory that is dropped with it.
const maxReusedValues = 1 << 16

// reuse returns n elements over buf's backing array, zeroing the rest of
// buf's previous length, or a fresh slice when buf is too small.
func reuse[T any](buf []T, n int) []T {
	if buf == nil || n > cap(buf) {
		return make([]T, n)
	}
	clear(buf[min(n, len(buf)):])
	return buf[:n]
}

// Decode parses a frame payload into a freshly allocated message.
func Decode(op Op, payload []byte) (Msg, error) { return decode(op, payload, nil) }

// decode parses a frame payload. With into non-nil the hot opcodes decode
// into its values; the result is the same message either way.
func decode(op Op, payload []byte, into *reused) (Msg, error) {
	d := &dec{b: payload}
	var m Msg
	switch op {
	case OpStartup:
		s := &Startup{Version: d.u32()}
		if n := d.u16(); n > 0 {
			s.Options = make(map[string]string, n)
			for i := 0; i < int(n); i++ {
				k := d.str()
				s.Options[k] = d.str()
			}
		}
		m = s
	case OpQuery:
		m = &Query{SQL: d.str()}
	case OpParse:
		m = &Parse{Name: d.str(), SQL: d.str()}
	case OpBind:
		// Each case allocates its message only when there is no reused one:
		// a new(...) overwritten afterwards would still be allocated.
		var b *Bind
		var args []rel.Value
		if into != nil {
			b, args = &into.bind, into.args
		} else {
			b = new(Bind)
		}
		b.Portal = d.strLike(b.Portal)
		b.Stmt = d.strLike(b.Stmt)
		b.Args = nil
		n := int(d.u16())
		// Every encoded value takes at least one byte: a tiny frame cannot
		// demand a large argument slice.
		if d.err == nil && n > len(d.b) {
			d.fail("Bind claims %d arguments but payload holds %d bytes", n, len(d.b))
		}
		if d.err == nil {
			args = reuse(args, n)
			for i := range args {
				args[i] = d.value()
			}
			if n > 0 {
				b.Args = args
			}
			if into != nil {
				into.args = args
			}
		}
		m = b
	case OpExecute:
		var e *Execute
		if into != nil {
			e = &into.exec
		} else {
			e = new(Execute)
		}
		e.Portal = d.strLike(e.Portal)
		e.MaxRows = d.u32()
		m = e
	case OpDescribe:
		m = &Describe{Kind: d.u8(), Name: d.str()}
	case OpClose:
		m = &Close{Kind: d.u8(), Name: d.str()}
	case OpSync:
		m = &Sync{}
	case OpTerminate:
		m = &Terminate{}
	case OpCancel:
		m = &Cancel{ConnID: d.u64(), Secret: d.u64()}
	case OpReady:
		m = &Ready{}
	case OpError:
		m = &Error{Code: d.str(), Message: d.str()}
	case OpParameterStatus:
		m = &ParameterStatus{Key: d.str(), Value: d.str()}
	case OpBackendKeyData:
		m = &BackendKeyData{ConnID: d.u64(), Secret: d.u64()}
	case OpParseComplete:
		m = &ParseComplete{NumParams: d.u16()}
	case OpBindComplete:
		m = &BindComplete{}
	case OpCloseComplete:
		m = &CloseComplete{}
	case OpRowDescription:
		rd := &RowDescription{}
		n := d.u16()
		if d.err == nil && n > 0 {
			rd.Cols = make([]ColDesc, n)
			for i := range rd.Cols {
				rd.Cols[i].Name = d.str()
				rd.Cols[i].Type = rel.Type(d.u8())
			}
		}
		m = rd
	case OpNoData:
		m = &NoData{}
	case OpDataBatch:
		var db *DataBatch
		var rows []rel.Row
		var slab []rel.Value
		if into != nil {
			db, rows, slab = &into.batch, into.rows, into.slab
		} else {
			db = new(DataBatch)
		}
		ncols := int(d.u16())
		nrows := int(d.u32())
		db.NumCols, db.Rows = ncols, nil
		// Validate the claimed cardinality against the actual payload
		// before allocating: every encoded value is at least one byte, so
		// a tiny frame cannot demand a huge allocation.
		if minBytes := nrows * max(ncols, 1); d.err == nil && nrows > 0 && minBytes > len(d.b) {
			d.fail("DataBatch claims %d rows x %d cols but payload holds %d bytes", nrows, ncols, len(d.b))
		}
		if d.err == nil {
			// Rows are carved from one value slab; the column-major layout
			// is inverted back into them value by value.
			slab = reuse(slab, nrows*ncols)
			rows = reuse(rows, nrows)
			for r := range rows {
				rows[r] = slab[r*ncols : (r+1)*ncols : (r+1)*ncols]
			}
			for c := 0; c < ncols; c++ {
				for r := 0; r < nrows; r++ {
					slab[r*ncols+c] = d.value()
				}
			}
			if nrows > 0 {
				db.Rows = rows
			}
			if into != nil {
				into.rows, into.slab = rows, slab
				if cap(slab) > maxReusedValues {
					// An outsized batch is not kept for the connection's life.
					into.rows, into.slab = nil, nil
				}
			}
		}
		m = db
	case OpCommandComplete:
		var cc *CommandComplete
		if into != nil {
			cc = &into.done
		} else {
			cc = new(CommandComplete)
		}
		cc.Tag = d.strLike(cc.Tag)
		cc.Affected = d.u64()
		m = cc
	case OpSuspended:
		m = &Suspended{}
	default:
		return nil, fmt.Errorf("wire: unknown opcode %q", byte(op))
	}
	if err := d.done(); err != nil {
		return nil, fmt.Errorf("%w (opcode %q)", err, byte(op))
	}
	return m, nil
}
