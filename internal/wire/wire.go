// Package wire implements NeurDB's binary client/server protocol: a
// length-prefixed frame layer plus typed message codecs, in the style of
// PostgreSQL's extended query protocol. A connection carries a stream of
// frames, each `[1-byte opcode][4-byte big-endian payload length][payload]`;
// the payload layout per opcode is defined in messages.go and specified for
// non-Go implementors in docs/PROTOCOL.md.
//
// The frame layer enforces a maximum payload size. An oversized frame is
// not a framing failure: the reader discards the payload (the stream stays
// synchronized) and returns *FrameTooLargeError so the server can answer
// with a clean Error message instead of dropping the connection. Only a
// frame whose claimed length exceeds AbsoluteMaxFrame — almost certainly
// stream corruption — is treated as fatal.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Version is the protocol version this package speaks, as major<<16|minor.
// The Startup message carries the client's version; the server accepts any
// minor revision of a major version it knows.
const Version uint32 = 0x0001_0000 // 1.0

// VersionMajor extracts the major component of a protocol version.
func VersionMajor(v uint32) uint16 { return uint16(v >> 16) }

// VersionMinor extracts the minor component of a protocol version.
func VersionMinor(v uint32) uint16 { return uint16(v) }

// FormatVersion renders a protocol version as "major.minor".
func FormatVersion(v uint32) string {
	return fmt.Sprintf("%d.%d", VersionMajor(v), VersionMinor(v))
}

const (
	// DefaultMaxFrame is the default per-frame payload ceiling (16 MiB):
	// large enough for bulk multi-row INSERT statements and full data
	// batches, small enough that a single frame cannot exhaust memory.
	DefaultMaxFrame = 16 << 20
	// AbsoluteMaxFrame is the hard ceiling beyond which a frame length is
	// treated as stream corruption rather than an oversized request.
	AbsoluteMaxFrame = 256 << 20
)

// Op identifies a frame's message type. Client- and server-sent opcodes
// share one byte space with no overlaps, so protocol dumps are unambiguous.
//
//lint:closedenum
type Op byte

// Client-sent opcodes.
const (
	OpStartup   Op = 'U' // protocol version + options; first frame on a connection
	OpQuery     Op = 'Q' // simple query: one SQL statement, no parameters
	OpParse     Op = 'P' // prepare a named statement
	OpBind      Op = 'B' // bind parameter values to a portal
	OpExecute   Op = 'E' // run a portal, optionally bounded by a fetch size
	OpDescribe  Op = 'D' // describe a statement or portal
	OpClose     Op = 'C' // close a statement or portal
	OpSync      Op = 'S' // end of an extended-query sequence
	OpTerminate Op = 'X' // clean connection shutdown
	OpCancel    Op = 'K' // cancel request; first frame on a fresh connection
)

// Server-sent opcodes.
const (
	OpReady           Op = 'Z' // ready for the next command sequence
	OpError           Op = '!' // statement or protocol error
	OpParameterStatus Op = 'p' // server-reported setting (startup)
	OpBackendKeyData  Op = 'k' // cancellation credentials (startup)
	OpParseComplete   Op = '1'
	OpBindComplete    Op = '2'
	OpCloseComplete   Op = '3'
	OpRowDescription  Op = 'T' // result column names and types
	OpNoData          Op = 'n' // statement produces no result rows
	OpDataBatch       Op = 'd' // one executor batch of rows, column-major
	OpCommandComplete Op = 'c' // statement finished: tag + affected count
	OpSuspended       Op = 's' // portal suspended at the fetch-size bound
)

// FrameTooLargeError reports a frame whose payload exceeded the reader's
// limit. The payload has been discarded and the stream remains usable.
type FrameTooLargeError struct {
	Op   Op
	Size uint32
	Max  int
}

func (e *FrameTooLargeError) Error() string {
	return fmt.Sprintf("wire: frame %q payload %d bytes exceeds limit %d", byte(e.Op), e.Size, e.Max)
}

// ErrCorrupt marks a frame length beyond AbsoluteMaxFrame; the connection
// must be dropped because the stream can no longer be trusted.
var ErrCorrupt = errors.New("wire: frame length exceeds absolute maximum; stream corrupt")

// Reader decodes frames from a connection.
type Reader struct {
	r        *bufio.Reader
	maxFrame int
	hdr      [5]byte
	buf      []byte // reused payload buffer
	msgs     reused // Decode's targets for the hot opcodes
}

// NewReader wraps r with the given payload ceiling (0 = DefaultMaxFrame).
func NewReader(r io.Reader, maxFrame int) *Reader {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	if maxFrame > AbsoluteMaxFrame {
		maxFrame = AbsoluteMaxFrame
	}
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), maxFrame: maxFrame}
}

// Buffered reports the bytes already received but not yet consumed. A
// server uses it to flush pending responses only when the next ReadFrame
// would actually block, so a pipelined command sequence costs one socket
// write instead of one per message.
func (r *Reader) Buffered() int { return r.r.Buffered() }

// ReadFrame reads the next frame. The returned payload aliases an internal
// buffer valid until the next call. An oversized frame is discarded and
// reported as *FrameTooLargeError; the caller may keep reading.
func (r *Reader) ReadFrame() (Op, []byte, error) {
	if _, err := io.ReadFull(r.r, r.hdr[:]); err != nil {
		return 0, nil, err
	}
	op := Op(r.hdr[0])
	size := binary.BigEndian.Uint32(r.hdr[1:])
	if size > AbsoluteMaxFrame {
		return op, nil, ErrCorrupt
	}
	if int(size) > r.maxFrame {
		if _, err := io.CopyN(io.Discard, r.r, int64(size)); err != nil {
			return op, nil, err
		}
		return op, nil, &FrameTooLargeError{Op: op, Size: size, Max: r.maxFrame}
	}
	if cap(r.buf) < int(size) {
		r.buf = make([]byte, size)
	}
	payload := r.buf[:size]
	if _, err := io.ReadFull(r.r, payload); err != nil {
		return op, nil, err
	}
	return op, payload, nil
}

// Decode parses a frame payload as the package-level Decode does, except
// that the steady-state round-trip messages that carry fields — Bind,
// Execute, DataBatch and CommandComplete — are decoded into values the
// Reader owns instead of fresh ones (Sync, Ready and BindComplete are empty
// and allocate nothing either way). Such a message, and every
// slice it holds (Bind.Args, DataBatch.Rows and the rows' values), is valid
// until the next ReadFrame, the rule the payload already follows; a caller
// that keeps any of it longer copies it. Strings (names, tags, TEXT values)
// are always the message's own and may be kept.
func (r *Reader) Decode(op Op, payload []byte) (Msg, error) {
	return decode(op, payload, &r.msgs)
}

// Writer encodes frames onto a connection. Frames are buffered; Flush
// pushes them to the peer (the server flushes at batch boundaries, the
// client after each pipelined command sequence).
type Writer struct {
	w       *bufio.Writer
	scratch []byte // reused frame build buffer
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// WriteMsg encodes and frames one message: header and payload are built in
// one reused buffer and handed to the connection buffer in one write. The
// message is only read, so callers may pass a value they reuse.
func (w *Writer) WriteMsg(m Msg) error {
	b := append(w.scratch[:0], byte(m.op()), 0, 0, 0, 0)
	b = m.encode(b)
	binary.BigEndian.PutUint32(b[1:5], uint32(len(b)-5))
	w.scratch = b
	_, err := w.w.Write(b)
	return err
}

// Flush pushes buffered frames to the peer.
func (w *Writer) Flush() error { return w.w.Flush() }
