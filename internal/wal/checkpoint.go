package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/vfs"
)

// IndexMeta names one secondary index in a checkpoint. Indexes are rebuilt
// from heap data after replay, so only the definition is persisted.
type IndexMeta struct {
	Name string
	Col  int
}

// CkptRow is one visible row image pinned to its physical slot.
type CkptRow struct {
	ID  storage.RowID
	Row rel.Row
}

// CkptTable is one table's full checkpoint image.
type CkptTable struct {
	ID      int
	Name    string
	Schema  *rel.Schema
	Indexes []IndexMeta
	Rows    []CkptRow
}

// Checkpoint is a transactionally consistent full-database snapshot: every
// row visible at Clock, written after WAL segment Seq was sealed. Recovery
// loads the newest checkpoint and replays the retained segments over it;
// because redo is idempotent, re-applying records the checkpoint already
// reflects is harmless.
type Checkpoint struct {
	Seq    uint64 // last WAL segment sealed before the snapshot cut
	Clock  uint64 // commit clock at the cut
	Tables []CkptTable
}

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
)

var checkpointMagic = [8]byte{'N', 'D', 'B', 'C', 'K', 'P', 'T', '1'}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", checkpointPrefix, seq, checkpointSuffix))
}

// listCheckpoints returns checkpoint files in ascending sequence order.
func listCheckpoints(fs vfs.FS, dir string) ([]SegmentRef, error) {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []SegmentRef
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, checkpointPrefix) || !strings.HasSuffix(name, checkpointSuffix) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, checkpointPrefix), checkpointSuffix)
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, SegmentRef{Seq: seq, Path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// encodeCheckpoint serializes ck; the trailing u32 is the CRC32C of
// everything before it.
func encodeCheckpoint(ck *Checkpoint) []byte {
	buf := make([]byte, 0, 4096)
	buf = append(buf, checkpointMagic[:]...)
	buf = appendUint64(buf, ck.Seq)
	buf = appendUint64(buf, ck.Clock)
	buf = appendUint32(buf, uint32(len(ck.Tables)))
	for _, t := range ck.Tables {
		buf = appendUint32(buf, uint32(t.ID))
		buf = appendString(buf, t.Name)
		buf = appendUint32(buf, uint32(len(t.Schema.Cols)))
		for _, c := range t.Schema.Cols {
			buf = appendString(buf, c.Name)
			buf = append(buf, byte(c.Typ))
			var flags byte
			if c.Unique {
				flags |= 1
			}
			if c.NotNull {
				flags |= 2
			}
			buf = append(buf, flags)
		}
		buf = appendUint32(buf, uint32(len(t.Indexes)))
		for _, ix := range t.Indexes {
			buf = appendString(buf, ix.Name)
			buf = appendUint32(buf, uint32(ix.Col))
			buf = append(buf, 0) // index kind: B-tree, as for a create-index record
		}
		buf = appendUint64(buf, uint64(len(t.Rows)))
		for _, r := range t.Rows {
			buf = appendUint32(buf, r.ID.Page)
			buf = appendUint32(buf, r.ID.Slot)
			buf = rel.EncodeRow(buf, r.Row)
		}
	}
	return appendUint32(buf, crc32.Checksum(buf, crcTable))
}

// decodeCheckpoint parses and CRC-verifies one checkpoint file's contents.
func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(checkpointMagic)+4 {
		return nil, fmt.Errorf("wal: checkpoint truncated (%d bytes)", len(data))
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.Checksum(body, crcTable) != binary.LittleEndian.Uint32(tail) {
		return nil, fmt.Errorf("wal: checkpoint CRC mismatch")
	}
	if [8]byte(body[:8]) != checkpointMagic {
		return nil, fmt.Errorf("wal: bad checkpoint magic")
	}
	d := &decoder{b: body, off: 8}
	ck := &Checkpoint{
		Seq:   d.u64("seq"),
		Clock: d.u64("clock"),
	}
	ntables := d.u32("table count")
	if d.err != nil {
		return nil, d.err
	}
	if ntables > 1<<20 {
		return nil, fmt.Errorf("wal: checkpoint: implausible table count %d", ntables)
	}
	for ti := uint32(0); ti < ntables; ti++ {
		t := CkptTable{
			ID:   int(d.u32("table id")),
			Name: d.str("table name"),
		}
		ncols := d.u32("column count")
		if d.err != nil {
			return nil, d.err
		}
		if ncols > 1<<16 {
			return nil, fmt.Errorf("wal: checkpoint: implausible column count %d", ncols)
		}
		cols := make([]rel.Column, 0, ncols)
		for i := uint32(0); i < ncols; i++ {
			c := rel.Column{Name: d.str("column name"), Typ: rel.Type(d.u8("column type"))}
			flags := d.u8("column flags")
			c.Unique = flags&1 != 0
			c.NotNull = flags&2 != 0
			cols = append(cols, c)
		}
		if d.err != nil {
			return nil, d.err
		}
		t.Schema = rel.NewSchema(cols...)
		nidx := d.u32("index count")
		if d.err != nil {
			return nil, d.err
		}
		if nidx > 1<<16 {
			return nil, fmt.Errorf("wal: checkpoint: implausible index count %d", nidx)
		}
		for i := uint32(0); i < nidx; i++ {
			t.Indexes = append(t.Indexes, IndexMeta{
				Name: d.str("index name"),
				Col:  int(d.u32("index col")),
			})
			d.u8("index kind") // read as a B-tree, as for a create-index record
		}
		nrows := d.u64("row count")
		if d.err != nil {
			return nil, d.err
		}
		if nrows > uint64(len(body)) {
			return nil, fmt.Errorf("wal: checkpoint: implausible row count %d", nrows)
		}
		t.Rows = make([]CkptRow, 0, int(min(nrows, 1<<16)))
		for i := uint64(0); i < nrows; i++ {
			r := CkptRow{}
			r.ID.Page = d.u32("row page")
			r.ID.Slot = d.u32("row slot")
			r.Row = d.row("row data")
			if d.err != nil {
				return nil, d.err
			}
			t.Rows = append(t.Rows, r)
		}
		ck.Tables = append(ck.Tables, t)
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(body) {
		return nil, fmt.Errorf("wal: checkpoint has %d trailing bytes", len(body)-d.off)
	}
	return ck, nil
}

// WriteCheckpoint atomically publishes ck: the image goes to a temp file,
// is fsynced, renamed into place, and the directory entry is fsynced — so a
// crash at any point leaves either the old checkpoint set or the new file
// complete, never a half-written one under the final name.
func WriteCheckpoint(fs vfs.FS, dir string, ck *Checkpoint) error {
	if fs == nil {
		fs = vfs.OS
	}
	data := encodeCheckpoint(ck)
	final := checkpointPath(dir, ck.Seq)
	tmp := final + ".tmp"
	f, err := fs.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	// On the error paths the primary failure is the error to report; the
	// cleanup drops are explicit, and an orphaned .tmp is harmless (never
	// matched by the checkpoint loader).
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = fs.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	if err := fs.Rename(tmp, final); err != nil {
		_ = fs.Remove(tmp)
		return err
	}
	return syncDir(fs, dir)
}

// LoadCheckpoint returns the newest checkpoint in dir, or nil if none
// exists. The newest file failing validation is a hard error, not a
// fallback: older checkpoints may already have had their WAL segments
// deleted, so silently using one could lose acknowledged commits.
func LoadCheckpoint(fs vfs.FS, dir string) (*Checkpoint, error) {
	if fs == nil {
		fs = vfs.OS
	}
	cks, err := listCheckpoints(fs, dir)
	if err != nil {
		return nil, err
	}
	if len(cks) == 0 {
		return nil, nil
	}
	newest := cks[len(cks)-1]
	data, err := fs.ReadFile(newest.Path)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(newest.Path), err)
	}
	return ck, nil
}

// RemoveCheckpointsBefore deletes checkpoint files older than seq, oldest
// first (mirrors the segment-retention invariant).
func RemoveCheckpointsBefore(fs vfs.FS, dir string, seq uint64) error {
	if fs == nil {
		fs = vfs.OS
	}
	cks, err := listCheckpoints(fs, dir)
	if err != nil {
		return err
	}
	for _, c := range cks {
		if c.Seq >= seq {
			break
		}
		if err := fs.Remove(c.Path); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs a directory so file creations/renames inside it are
// durable.
func syncDir(fs vfs.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
