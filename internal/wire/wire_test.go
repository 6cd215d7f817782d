package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"regexp"
	"strings"
	"testing"

	"neurdb/internal/rel"
)

// roundTrip encodes m into a frame, reads it back through a Reader, and
// decodes it.
func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMsg(m); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := w.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	r := NewReader(&buf, 0)
	op, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("read frame: %v", err)
	}
	if op != m.op() {
		t.Fatalf("opcode %q, want %q", byte(op), byte(m.op()))
	}
	out, err := Decode(op, payload)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func TestMessageRoundTrip(t *testing.T) {
	msgs := []Msg{
		&Startup{Version: Version, Options: map[string]string{"application_name": "test", "fetch": "256"}},
		&Startup{Version: Version},
		&Query{SQL: "SELECT * FROM t WHERE a = 'semi;colon'"},
		&Parse{Name: "s1", SQL: "SELECT val FROM kv WHERE id = ?"},
		&Parse{Name: "", SQL: ""},
		&Bind{Portal: "p", Stmt: "s1", Args: []rel.Value{
			rel.Int(-42), rel.Float(math.Pi), rel.Text("héllo"), rel.Bool(true), rel.Null(),
			rel.Float(math.Inf(-1)), rel.Text(""), rel.Int(math.MaxInt64), rel.Bool(false),
		}},
		&Bind{Portal: "", Stmt: ""},
		&Execute{Portal: "p", MaxRows: 1024},
		&Execute{Portal: "", MaxRows: 0},
		&Describe{Kind: KindStatement, Name: "s1"},
		&Describe{Kind: KindPortal, Name: ""},
		&Close{Kind: KindPortal, Name: "p"},
		&Sync{},
		&Terminate{},
		&Cancel{ConnID: 7, Secret: 0xdeadbeefcafef00d},
		&Ready{},
		&Error{Code: CodeError, Message: "neurdb: no table \"missing\""},
		&ParameterStatus{Key: "server_version", Value: "neurdb 5"},
		&BackendKeyData{ConnID: 1, Secret: 2},
		&ParseComplete{NumParams: 3},
		&BindComplete{},
		&CloseComplete{},
		&RowDescription{Cols: []ColDesc{{Name: "id", Type: rel.TypeInt}, {Name: "note", Type: rel.TypeText}, {Name: "x", Type: rel.TypeNull}}},
		&RowDescription{},
		&NoData{},
		&CommandComplete{Tag: "INSERT 3", Affected: 3},
		&CommandComplete{Tag: "", Affected: 0},
		&Suspended{},
	}
	for _, m := range msgs {
		out := roundTrip(t, m)
		if !sameMsg(m, out) {
			t.Errorf("round trip %T: got %v, want %v", m, out, m)
		}
	}
}

// valueAddr matches a pointer field in %#v output: the address a rel.Value
// points at.
var valueAddr = regexp.MustCompile(`\(unsafe\.Pointer\)\(0x[0-9a-f]+\)`)

// sameMsg reports whether two messages agree in every field. A rel.Value is
// incomparable (a TEXT's identity is the address of its bytes), so they are
// compared by their encodings, which hold every field's content, and by
// their %#v with the values' addresses masked, which also tells a nil slice
// or map from an empty one.
func sameMsg(a, b Msg) bool {
	if a.op() != b.op() || !bytes.Equal(a.encode(nil), b.encode(nil)) {
		return false
	}
	mask := func(m Msg) string { return valueAddr.ReplaceAllString(fmt.Sprintf("%#v", m), "(unsafe.Pointer)(addr)") }
	return mask(a) == mask(b)
}

func TestDataBatchRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		b    *DataBatch
	}{
		{"all types with NULLs", &DataBatch{NumCols: 5, Rows: []rel.Row{
			{rel.Int(1), rel.Float(2.5), rel.Text("a"), rel.Bool(true), rel.Null()},
			{rel.Null(), rel.Null(), rel.Null(), rel.Null(), rel.Null()},
			{rel.Int(-9), rel.Float(-0.0), rel.Text(strings.Repeat("x", 1000)), rel.Bool(false), rel.Int(0)},
		}}},
		{"empty batch", &DataBatch{NumCols: 3}},
		{"zero columns", &DataBatch{NumCols: 0}},
		{"single cell", &DataBatch{NumCols: 1, Rows: []rel.Row{{rel.Text("only")}}}},
	}
	for _, tc := range cases {
		out := roundTrip(t, tc.b).(*DataBatch)
		if out.NumCols != tc.b.NumCols {
			t.Errorf("%s: ncols %d, want %d", tc.name, out.NumCols, tc.b.NumCols)
		}
		if len(out.Rows) != len(tc.b.Rows) {
			t.Fatalf("%s: %d rows, want %d", tc.name, len(out.Rows), len(tc.b.Rows))
		}
		for i := range tc.b.Rows {
			if !bytes.Equal(rel.EncodeRow(nil, out.Rows[i]), rel.EncodeRow(nil, tc.b.Rows[i])) {
				t.Errorf("%s: row %d = %v, want %v", tc.name, i, out.Rows[i], tc.b.Rows[i])
			}
		}
	}
}

// TestDataBatchColumnMajor pins the wire layout: the encoded payload holds
// column 0's values contiguously before column 1's. PROTOCOL.md documents
// this ordering for non-Go clients, so a layout change must fail loudly.
func TestDataBatchColumnMajor(t *testing.T) {
	b := &DataBatch{NumCols: 2, Rows: []rel.Row{
		{rel.Text("a0"), rel.Text("b0")},
		{rel.Text("a1"), rel.Text("b1")},
	}}
	payload := b.encode(nil)
	order := []string{"a0", "a1", "b0", "b1"}
	pos := 6 // u16 ncols + u32 nrows
	for _, want := range order {
		v, used, err := rel.DecodeValue(payload[pos:])
		if err != nil {
			t.Fatalf("decode at %d: %v", pos, err)
		}
		if v.String() != want {
			t.Fatalf("value at offset %d = %q, want %q (layout not column-major)", pos, v.String(), want)
		}
		pos += used
	}
}

func TestOversizedFrameDiscardedAndStreamContinues(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMsg(&Query{SQL: strings.Repeat("x", 4096)}); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteMsg(&Sync{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf, 1024) // payload ceiling below the query's size
	op, _, err := r.ReadFrame()
	var tooLarge *FrameTooLargeError
	if !errors.As(err, &tooLarge) {
		t.Fatalf("err = %v, want FrameTooLargeError", err)
	}
	if op != OpQuery || tooLarge.Op != OpQuery {
		t.Fatalf("oversized frame opcode %q/%q, want %q", byte(op), byte(tooLarge.Op), byte(OpQuery))
	}
	// The payload was discarded: the next frame decodes normally.
	op, payload, err := r.ReadFrame()
	if err != nil {
		t.Fatalf("frame after oversized: %v", err)
	}
	if op != OpSync || len(payload) != 0 {
		t.Fatalf("frame after oversized = %q (%d bytes), want Sync", byte(op), len(payload))
	}
}

func TestCorruptFrameLengthIsFatal(t *testing.T) {
	frame := []byte{byte(OpQuery), 0xff, 0xff, 0xff, 0xff} // ~4 GiB claimed
	r := NewReader(bytes.NewReader(frame), 0)
	if _, _, err := r.ReadFrame(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestTruncatedPayloads(t *testing.T) {
	// Every message type must reject a truncated payload instead of
	// panicking or silently zero-filling.
	msgs := []Msg{
		&Startup{Version: Version, Options: map[string]string{"k": "v"}},
		&Query{SQL: "SELECT 1"},
		&Parse{Name: "s", SQL: "SELECT ?"},
		&Bind{Portal: "p", Stmt: "s", Args: []rel.Value{rel.Int(1)}},
		&Execute{Portal: "p", MaxRows: 10},
		&Describe{Kind: KindStatement, Name: "s"},
		&Cancel{ConnID: 1, Secret: 2},
		&Error{Code: CodeError, Message: "m"},
		&RowDescription{Cols: []ColDesc{{Name: "c", Type: rel.TypeInt}}},
		&DataBatch{NumCols: 1, Rows: []rel.Row{{rel.Int(5)}}},
		&CommandComplete{Tag: "SELECT", Affected: 1},
	}
	for _, m := range msgs {
		full := m.encode(nil)
		for cut := 0; cut < len(full); cut++ {
			if _, err := Decode(m.op(), full[:cut]); err == nil {
				t.Errorf("%T: truncation at %d/%d decoded without error", m, cut, len(full))
			}
		}
	}
}

// TestDataBatchBogusCardinalityRejected pins the allocation guard: a tiny
// frame claiming ~4 billion rows must fail before make() runs, not OOM the
// decoder.
func TestDataBatchBogusCardinalityRejected(t *testing.T) {
	payload := appendU16(nil, 2)                // 2 cols
	payload = appendU32(payload, 0xFFFF_FFFF)   // absurd row count
	payload = append(payload, 0, 0, 0, 0, 0, 0) // a few stray bytes
	if _, err := Decode(OpDataBatch, payload); err == nil {
		t.Fatal("bogus DataBatch cardinality decoded without error")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	payload := (&Sync{}).encode(nil)
	payload = append(payload, 0x01)
	if _, err := Decode(OpSync, payload); err == nil {
		t.Fatal("trailing bytes decoded without error")
	}
}

func TestUnknownOpcode(t *testing.T) {
	if _, err := Decode(Op('?'), nil); err == nil {
		t.Fatal("unknown opcode decoded without error")
	}
}

// TestFramesOverPipe exercises the reader/writer over a real byte stream
// with multiple frames in flight.
func TestFramesOverPipe(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	defer server.Close()

	go func() {
		w := NewWriter(client)
		w.WriteMsg(&Parse{Name: "s1", SQL: "SELECT id FROM t WHERE id = ?"})
		w.WriteMsg(&Bind{Portal: "", Stmt: "s1", Args: []rel.Value{rel.Int(3)}})
		w.WriteMsg(&Execute{Portal: "", MaxRows: 100})
		w.WriteMsg(&Sync{})
		w.Flush()
	}()

	r := NewReader(server, 0)
	want := []Op{OpParse, OpBind, OpExecute, OpSync}
	for _, wop := range want {
		op, payload, err := r.ReadFrame()
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if op != wop {
			t.Fatalf("opcode %q, want %q", byte(op), byte(wop))
		}
		if _, err := Decode(op, payload); err != nil {
			t.Fatalf("decode %q: %v", byte(op), err)
		}
	}
}

func TestVersionHelpers(t *testing.T) {
	if VersionMajor(Version) != 1 || VersionMinor(Version) != 0 {
		t.Fatalf("version = %d.%d, want 1.0", VersionMajor(Version), VersionMinor(Version))
	}
	if FormatVersion(Version) != "1.0" {
		t.Fatalf("FormatVersion = %q", FormatVersion(Version))
	}
}
