package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"testing"

	"neurdb/internal/rel"
)

// frame builds one wire frame: [1B op][u32 BE payload length][payload].
func frame(op Op, payload []byte) []byte {
	out := make([]byte, 0, 5+len(payload))
	out = append(out, byte(op))
	out = binary.BigEndian.AppendUint32(out, uint32(len(payload)))
	return append(out, payload...)
}

// FuzzFrameDecode feeds an arbitrary byte stream through the frame reader
// and the message decoder — the exact path a malicious or corrupted client
// connection exercises on the server. Neither layer may panic; ReadFrame
// must either produce a frame or a terminal error, and Decode must reject
// malformed payloads with an error, never garbage. Every frame is decoded
// twice, fresh and through the Reader's reusing Decode, and the two must
// agree in every field and error: a reused message keeping a stale field,
// argument or row of an earlier, larger one fails here.
func FuzzFrameDecode(f *testing.F) {
	seed := func(m Msg) []byte { return frame(m.op(), m.encode(nil)) }
	f.Add(seed(&Startup{Version: Version, Options: map[string]string{"workers": "4"}}))
	f.Add(seed(&Query{SQL: "SELECT 1"}))
	f.Add(seed(&Parse{Name: "s1", SQL: "INSERT INTO t VALUES (?)"}))
	f.Add(seed(&Bind{Portal: "", Stmt: "s1", Args: []rel.Value{rel.Int(7), rel.Text("x"), rel.Null()}}))
	f.Add(seed(&Execute{Portal: "", MaxRows: 100}))
	f.Add(seed(&Describe{Kind: 'S', Name: "s1"}))
	f.Add(seed(&Sync{}))
	f.Add(seed(&Terminate{}))
	// A pipelined sequence in one stream.
	f.Add(bytes.Join([][]byte{
		seed(&Startup{Version: Version}),
		seed(&Query{SQL: "CREATE TABLE t (id INT)"}),
		seed(&Sync{}),
	}, nil))
	// Shrinking round-trip messages on one reader: the reused values must
	// not keep anything of the larger ones before them.
	f.Add(bytes.Join([][]byte{
		seed(&Bind{Portal: "p", Stmt: "s1", Args: []rel.Value{rel.Text("long text value"), rel.Int(1), rel.Float(-0.0)}}),
		seed(&Bind{Portal: "", Stmt: "s1", Args: []rel.Value{rel.Null()}}),
		seed(&Bind{Portal: "", Stmt: "s2"}),
		seed(&DataBatch{NumCols: 3, Rows: []rel.Row{
			{rel.Int(1), rel.Text("wide"), rel.Bool(true)},
			{rel.Int(2), rel.Null(), rel.Float(math.NaN())},
		}}),
		seed(&DataBatch{NumCols: 1, Rows: []rel.Row{{rel.Text("x")}}}),
		seed(&DataBatch{NumCols: 2}),
		seed(&CommandComplete{Tag: "UPDATE 3", Affected: 3}),
		seed(&CommandComplete{Affected: 1}),
		seed(&Execute{Portal: "p", MaxRows: 9}),
		seed(&Execute{}),
	}, nil))
	// Pathological headers.
	f.Add(frame(OpQuery, nil)[:3])                       // torn header
	f.Add([]byte{byte(OpQuery), 0xff, 0xff, 0xff, 0xff}) // absurd length
	f.Add([]byte{0x00, 0x00, 0x00, 0x00, 0x01, 0x41})    // unknown opcode

	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewReader(bytes.NewReader(data), 1<<20)
		for i := 0; i < 1000; i++ {
			op, payload, err := r.ReadFrame()
			if err != nil {
				var tooBig *FrameTooLargeError
				if errors.As(err, &tooBig) {
					continue // stream remains usable past an oversized frame
				}
				if errors.Is(err, ErrCorrupt) || errors.Is(err, io.EOF) ||
					errors.Is(err, io.ErrUnexpectedEOF) {
					return
				}
				t.Fatalf("unexpected ReadFrame error type: %v", err)
			}
			fresh, ferr := Decode(op, payload)
			reused, rerr := r.Decode(op, payload)
			if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
				t.Fatalf("op %q: fresh decode error %v, reusing decode error %v", byte(op), ferr, rerr)
			}
			if ferr != nil {
				continue // malformed payloads are rejected, not crashed on
			}
			if !sameMsg(fresh, reused) {
				t.Fatalf("op %q: reusing decode differs from fresh\nfresh:  %v\nreused: %v", byte(op), fresh, reused)
			}
		}
	})
}
