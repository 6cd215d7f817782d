// Package wal implements NeurDB's durability layer: a segmented write-ahead
// log of logical redo records appended at commit, a leader/follower group
// commit that amortizes one fsync across concurrent committers, full-state
// checkpoints that bound replay length, and replay-on-boot that reconstructs
// the database from the last checkpoint plus the retained log suffix.
//
// Redo is physiological: every operation names its physical slot (table,
// page, slot) and carries the full new row image, so applying a record is
// "install this row at this slot" / "clear this slot" — idempotent by
// construction. That makes the recovery protocol simple to reason about:
// replay applies every retained record in file order over the checkpoint
// image, and because first-updater-wins serializes conflicting writers, file
// order agrees with commit order wherever two records touch the same slot,
// so re-application always converges to the committed state.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// Record kinds.
const (
	RecCommit      byte = 1 // one committed transaction's redo operations
	RecCreateTable byte = 2
	RecDropTable   byte = 3
	RecCreateIndex byte = 4
)

// Op codes within a commit record mirror the transaction manager's write
// kinds.
const (
	OpInsert byte = 'i'
	OpUpdate byte = 'u'
	OpDelete byte = 'd'
)

// Op is one redo operation of a committed transaction: install Row at
// (Table, ID) for inserts/updates, clear the slot for deletes.
type Op struct {
	Kind  byte
	Table int
	ID    storage.RowID
	Row   rel.Row // nil for deletes
}

// Ops is a commit's redo operations as the record encoder reads them: Len of
// them, the i-th from At, so a write set is encoded in place, with no []Op
// built for it.
type Ops interface {
	Len() int
	At(i int) Op
}

// Record is one decoded WAL record.
type Record struct {
	Kind byte

	// Commit fields.
	CommitTS uint64
	Ops      []Op

	// DDL fields.
	TableID int
	Name    string      // table or index name
	Schema  *rel.Schema // create-table only
	Col     int         // create-index only
}

// crcTable is the Castagnoli polynomial — hardware-accelerated on amd64 and
// arm64, and the conventional choice for storage checksums.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// appendUint32/appendUint64 are little-endian, matching rel's value codec.
func appendUint32(dst []byte, v uint32) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	return append(dst, b[:]...)
}

func appendUint64(dst []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(dst, b[:]...)
}

func appendString(dst []byte, s string) []byte {
	dst = appendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wal: decode %s: truncated at byte %d", what, d.off)
	}
}

func (d *decoder) u8(what string) byte {
	if d.err != nil {
		return 0
	}
	if d.off+1 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) u32(what string) uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.b) {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) str(what string) string {
	n := int(d.u32(what))
	if d.err != nil {
		return ""
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail(what)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

func (d *decoder) row(what string) rel.Row {
	if d.err != nil {
		return nil
	}
	row, used, err := rel.DecodeRow(d.b[d.off:])
	if err != nil {
		if d.err == nil {
			d.err = fmt.Errorf("wal: decode %s at byte %d: %w", what, d.off, err)
		}
		return nil
	}
	d.off += used
	return row
}

// encodeCommit serializes a commit record payload.
func encodeCommit(dst []byte, cts uint64, ops Ops) []byte {
	dst = append(dst, RecCommit)
	dst = appendUint64(dst, cts)
	n := ops.Len()
	dst = appendUint32(dst, uint32(n))
	for i := range n {
		op := ops.At(i)
		dst = append(dst, op.Kind)
		dst = appendUint32(dst, uint32(op.Table))
		dst = appendUint32(dst, op.ID.Page)
		dst = appendUint32(dst, op.ID.Slot)
		if op.Kind != OpDelete {
			dst = rel.EncodeRow(dst, op.Row)
		}
	}
	return dst
}

// EncodeCreateTable serializes a create-table DDL payload.
func EncodeCreateTable(dst []byte, tableID int, name string, schema *rel.Schema) []byte {
	dst = append(dst, RecCreateTable)
	dst = appendUint32(dst, uint32(tableID))
	dst = appendString(dst, name)
	dst = appendUint32(dst, uint32(len(schema.Cols)))
	for _, c := range schema.Cols {
		dst = appendString(dst, c.Name)
		dst = append(dst, byte(c.Typ))
		var flags byte
		if c.Unique {
			flags |= 1
		}
		if c.NotNull {
			flags |= 2
		}
		dst = append(dst, flags)
	}
	return dst
}

// EncodeDropTable serializes a drop-table DDL payload.
func EncodeDropTable(dst []byte, name string) []byte {
	dst = append(dst, RecDropTable)
	return appendString(dst, name)
}

// EncodeCreateIndex serializes a create-index DDL payload. Its last byte is
// the index kind, always 0 (B-tree): earlier versions also wrote 1 for a
// hash index, which is now read as a B-tree.
func EncodeCreateIndex(dst []byte, tableID int, name string, col int) []byte {
	dst = append(dst, RecCreateIndex)
	dst = appendUint32(dst, uint32(tableID))
	dst = appendString(dst, name)
	dst = appendUint32(dst, uint32(col))
	return append(dst, 0)
}

// maxOpsPerRecord bounds the op-count header so a corrupt record cannot
// drive a giant allocation before the per-op bounds checks run.
const maxOpsPerRecord = 1 << 24

// DecodeRecord parses one record payload (the bytes between the CRC header
// and the next record). It never panics on malformed input.
func DecodeRecord(payload []byte) (*Record, error) {
	d := &decoder{b: payload}
	rec := &Record{Kind: d.u8("kind")}
	switch rec.Kind {
	case RecCommit:
		rec.CommitTS = d.u64("commit ts")
		n := d.u32("op count")
		if d.err != nil {
			return nil, d.err
		}
		if n > maxOpsPerRecord {
			return nil, fmt.Errorf("wal: decode commit: implausible op count %d", n)
		}
		rec.Ops = make([]Op, 0, min(int(n), 4096))
		for i := uint32(0); i < n; i++ {
			op := Op{
				Kind:  d.u8("op kind"),
				Table: int(d.u32("op table")),
			}
			op.ID.Page = d.u32("op page")
			op.ID.Slot = d.u32("op slot")
			switch op.Kind {
			case OpInsert, OpUpdate:
				op.Row = d.row("op row")
			case OpDelete:
			default:
				if d.err == nil {
					d.err = fmt.Errorf("wal: decode commit: unknown op kind %q", op.Kind)
				}
			}
			if d.err != nil {
				return nil, d.err
			}
			rec.Ops = append(rec.Ops, op)
		}
	case RecCreateTable:
		rec.TableID = int(d.u32("table id"))
		rec.Name = d.str("table name")
		n := d.u32("column count")
		if d.err != nil {
			return nil, d.err
		}
		if n > 1<<16 {
			return nil, fmt.Errorf("wal: decode create-table: implausible column count %d", n)
		}
		cols := make([]rel.Column, 0, n)
		for i := uint32(0); i < n; i++ {
			c := rel.Column{Name: d.str("column name"), Typ: rel.Type(d.u8("column type"))}
			flags := d.u8("column flags")
			c.Unique = flags&1 != 0
			c.NotNull = flags&2 != 0
			if d.err != nil {
				return nil, d.err
			}
			cols = append(cols, c)
		}
		rec.Schema = rel.NewSchema(cols...)
	case RecDropTable:
		rec.Name = d.str("table name")
	case RecCreateIndex:
		rec.TableID = int(d.u32("table id"))
		rec.Name = d.str("index name")
		rec.Col = int(d.u32("index col"))
		d.u8("index kind") // every index is a B-tree, whatever kind was written
	default:
		return nil, fmt.Errorf("wal: unknown record kind %d", rec.Kind)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(payload) {
		return nil, fmt.Errorf("wal: record has %d trailing bytes", len(payload)-d.off)
	}
	return rec, nil
}
