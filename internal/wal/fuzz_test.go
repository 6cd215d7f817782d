package wal

import (
	"reflect"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// FuzzWALDecode hammers DecodeRecord with arbitrary payloads: it must never
// panic, and whenever it accepts a commit record the encode/decode pair must
// be a fixed point (re-encoding the decoded record yields the same bytes, so
// replay and the original append agree on every field).
func FuzzWALDecode(f *testing.F) {
	f.Add(encodeCommit(nil, 1, []Op{
		{Kind: OpInsert, Table: 1, ID: storage.RowID{Page: 0, Slot: 3}, Row: rel.Row{rel.Int(42), rel.Text("seed")}},
		{Kind: OpUpdate, Table: 1, ID: storage.RowID{Page: 0, Slot: 3}, Row: rel.Row{rel.Int(43), rel.Null()}},
		{Kind: OpDelete, Table: 2, ID: storage.RowID{Page: 7, Slot: 0}},
	}))
	f.Add(encodeCommit(nil, 0, nil))
	f.Add(EncodeCreateTable(nil, 3, "users", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true, NotNull: true},
		rel.Column{Name: "score", Typ: rel.TypeFloat},
	)))
	f.Add(EncodeDropTable(nil, "users"))
	f.Add(EncodeCreateIndex(nil, 3, "users_score", 1))
	f.Add([]byte{})
	f.Add([]byte{RecCommit})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRecord(data)
		if err != nil {
			return
		}
		if rec == nil {
			t.Fatal("nil record with nil error")
		}
		if rec.Kind == RecCommit {
			re := encodeCommit(nil, rec.CommitTS, rec.Ops)
			rec2, err := DecodeRecord(re)
			if err != nil {
				t.Fatalf("re-encode of accepted record failed to decode: %v", err)
			}
			if rec2.CommitTS != rec.CommitTS || !reflect.DeepEqual(rec2.Ops, rec.Ops) {
				t.Fatalf("decode/encode not a fixed point:\n got %+v\nwant %+v", rec2, rec)
			}
		}
	})
}

// FuzzCheckpointDecode: arbitrary bytes must never panic the checkpoint
// parser; only CRC-valid, well-formed images are accepted.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(encodeCheckpoint(&Checkpoint{Seq: 2, Clock: 99, Tables: []CkptTable{{
		ID:      1,
		Name:    "t",
		Schema:  rel.NewSchema(rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true}),
		Indexes: []IndexMeta{{Name: "t_id", Col: 0}},
		Rows:    []CkptRow{{ID: storage.RowID{Page: 0, Slot: 0}, Row: rel.Row{rel.Int(1)}}},
	}}}))
	f.Add(encodeCheckpoint(&Checkpoint{}))
	f.Add([]byte("NDBCKPT1"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err == nil && ck == nil {
			t.Fatal("nil checkpoint with nil error")
		}
	})
}
