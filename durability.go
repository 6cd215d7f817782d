package neurdb

import (
	"fmt"
	"time"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/vfs"
	"neurdb/internal/wal"
)

// openDurable recovers the database from Config.DataDir and installs the
// write-ahead log on the commit path. The sequence is:
//
//  1. Load the newest checkpoint (if any) and rebuild catalog, schemas, index
//     definitions, and heap rows from it. Checkpoint rows install at commit
//     timestamp 1 — every post-recovery snapshot starts at or beyond the
//     restored clock, so they are visible everywhere.
//  2. Replay every retained WAL segment in file order. Redo is idempotent, so
//     records the checkpoint already reflects (possible after a crash during
//     checkpoint truncation) converge harmlessly.
//  3. Fast-forward the commit clock past everything recovered, rebuild the
//     derived state replay does not maintain (free lists, index contents,
//     statistics), and only then open the log for appending — new records go
//     to a fresh segment, never into a possibly-torn tail.
func (db *DB) openDurable() error {
	dir := db.cfg.DataDir
	fs := db.cfg.FS
	if fs == nil {
		fs = vfs.OS
	}
	db.fs = fs
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ck, err := wal.LoadCheckpoint(fs, dir)
	if err != nil {
		return err
	}
	if ck != nil {
		for _, t := range ck.Tables {
			tbl, err := db.cat.Restore(t.ID, t.Name, t.Schema)
			if err != nil {
				return err
			}
			for _, ix := range t.Indexes {
				addIndexDef(tbl, ix.Name, ix.Col)
			}
			for _, r := range t.Rows {
				tbl.Heap.InstallAt(r.ID, r.Row, 1)
			}
		}
	}
	st, err := wal.ReplaySegments(fs, dir, db.applyRecord)
	if err != nil {
		return err
	}
	clock := st.MaxCTS
	if ck != nil && ck.Clock > clock {
		clock = ck.Clock
	}
	if clock > 0 {
		db.mgr.RestoreClock(clock)
	}
	db.rebuildDerivedState()

	mode, err := wal.ParseSyncMode(db.cfg.WalSync)
	if err != nil {
		return err
	}
	l, err := wal.Open(wal.Options{
		Dir:      dir,
		Mode:     mode,
		Interval: db.cfg.WalSyncInterval,
		FS:       fs,
	})
	if err != nil {
		return err
	}
	db.wlog = l
	db.mgr.SetCommitLog(l)
	if db.cfg.CheckpointInterval > 0 || db.cfg.CheckpointWalMB > 0 {
		db.stopCkpt = make(chan struct{})
		db.ckptDone = make(chan struct{})
		go db.checkpointLoop()
	}
	return nil
}

// applyRecord installs one replayed WAL record. Commit operations are
// physiological redo — install the row image at its logged slot, or clear
// the slot — so re-application is idempotent. DDL records tolerate state the
// checkpoint already reflects (create of an existing table, drop of a
// missing one): after a crash during checkpoint truncation both sources can
// describe the same change.
func (db *DB) applyRecord(rec *wal.Record) error {
	switch rec.Kind {
	case wal.RecCommit:
		for _, op := range rec.Ops {
			tbl := db.cat.ByID(op.Table)
			if tbl == nil {
				// The table is dropped later in the log (its drop record was
				// already replayed on a previous pass, or the checkpoint
				// post-dates the drop): its row changes are moot.
				continue
			}
			switch op.Kind {
			case wal.OpInsert, wal.OpUpdate:
				tbl.Heap.InstallAt(op.ID, op.Row, rec.CommitTS)
			case wal.OpDelete:
				tbl.Heap.ClearAt(op.ID)
			}
		}
	case wal.RecCreateTable:
		// Restore builds the key indexes from the schema's Unique flags.
		if _, err := db.cat.Restore(rec.TableID, rec.Name, rec.Schema); err != nil {
			return err
		}
	case wal.RecDropTable:
		// Ignore "does not exist": the checkpoint may already exclude it.
		_ = db.cat.Drop(rec.Name)
	case wal.RecCreateIndex:
		tbl := db.cat.ByID(rec.TableID)
		if tbl == nil {
			return nil // table dropped later in the log
		}
		addIndexDef(tbl, rec.Name, rec.Col)
	}
	return nil
}

// addIndexDef registers an empty index definition during recovery. Contents
// are rebuilt from heap data after replay (rebuildDerivedState), so only the
// definition matters here — and the checkpoint, a replayed create record and
// the table's own key indexes may describe the same index: the second
// registration is refused by name, which is the outcome wanted.
func addIndexDef(tbl *catalog.Table, name string, col int) {
	_ = tbl.AddIndex(&catalog.Index{Name: name, Col: col, BT: index.NewBTree()}, nil)
}

// eachChain visits every version chain of h, head first, in heap order — the
// walk recovery, the checkpointer and the CREATE INDEX fill share. It reads a
// page at a time through the heap's one walker, so it may run beside writers.
func eachChain(h *storage.Heap, visit func(id storage.RowID, head *storage.Version)) {
	h.ScanBatch(func(pageID uint32, heads []*storage.Version) bool {
		for slot, head := range heads {
			if head != nil {
				visit(storage.RowID{Page: pageID, Slot: uint32(slot)}, head)
			}
		}
		return true
	})
}

// rebuildDerivedState reconstructs everything replay does not maintain
// directly: heap free lists (replay never frees slots in place — see
// Heap.ClearAt), secondary index contents, and optimizer statistics. Runs
// single-threaded at boot, before any transaction exists, so every chain
// head is a committed row.
func (db *DB) rebuildDerivedState() {
	for _, tbl := range db.cat.All() {
		tbl.Heap.RebuildFree()
		indexes := tbl.Indexes()
		var rows []rel.Row
		eachChain(tbl.Heap, func(id storage.RowID, head *storage.Version) {
			for _, ix := range indexes {
				ix.BT.Insert(head.Data[ix.Col], id)
			}
			rows = append(rows, head.Data)
		})
		tbl.Stats.Rebuild(rows)
	}
}

// Checkpoint writes a transactionally consistent snapshot of the whole
// database and truncates the WAL to the segments that postdate it. The cut
// runs under the commit lock (txn.Manager.Quiesce): rotate the log (sealing
// the old segment with an fsync), read the commit clock, and list the
// tables — all while no commit is between drawing its timestamp and
// storing it. Everything committed at or before the cut lands in the
// snapshot; everything after has its record in the new segment. The heap
// scan itself runs outside the lock under manual snapshot visibility, so
// commits keep flowing while the (potentially large) image is built and
// written.
//
// Concurrent heap mutation during the scan is safe for commits (they only
// prepend versions and stamp timestamps, both handled by the visibility
// walk) but not for physical chain surgery: do not run Heap.Vacuum
// concurrently with Checkpoint.
func (db *DB) Checkpoint() error {
	l := db.wlog
	if l == nil {
		return fmt.Errorf("neurdb: checkpoint requires Config.DataDir")
	}
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()

	var sealed, snap uint64
	var tables []*catalog.Table
	err := db.mgr.Quiesce(func(clock uint64) error {
		var err error
		if sealed, err = l.Rotate(); err != nil {
			return err
		}
		snap, tables = clock, db.cat.All()
		return nil
	})
	if err != nil {
		return err
	}

	ck := &wal.Checkpoint{Seq: sealed, Clock: snap}
	for _, tbl := range tables {
		ct := wal.CkptTable{ID: tbl.ID, Name: tbl.Name, Schema: tbl.Schema}
		for _, ix := range tbl.Indexes() {
			ct.Indexes = append(ct.Indexes, wal.IndexMeta{Name: ix.Name, Col: ix.Col})
		}
		eachChain(tbl.Heap, func(id storage.RowID, head *storage.Version) {
			if row, vis := visibleAt(head, snap); vis {
				ct.Rows = append(ct.Rows, wal.CkptRow{ID: id, Row: row})
			}
		})
		ck.Tables = append(ck.Tables, ct)
	}

	if err := wal.WriteCheckpoint(l.FS(), l.Dir(), ck); err != nil {
		return err
	}
	// Old checkpoints go before old segments: if a crash interrupts the
	// cleanup, recovery sees the new checkpoint plus extra old segments
	// (harmlessly replayed), never a checkpoint whose segments are gone.
	if err := wal.RemoveCheckpointsBefore(l.FS(), l.Dir(), ck.Seq); err != nil {
		return err
	}
	if err := l.RemoveThrough(sealed); err != nil {
		return err
	}
	db.lastCkptWal.Store(l.Bytes())
	return nil
}

// visibleAt walks a version chain with an explicit snapshot timestamp: the
// first version whose creator committed at or before snap is the snapshot's
// row unless its deleter also committed at or before snap. Unstamped
// versions (creator uncommitted, or committed after the checkpoint cut) are
// skipped — their redo records live in post-cut segments.
func visibleAt(head *storage.Version, snap uint64) (rel.Row, bool) {
	for v := head; v != nil; v = v.Next() {
		bts := v.BeginTS()
		if bts == 0 || bts > snap {
			continue
		}
		if v.EndTS() <= snap {
			return nil, false // deleted within the snapshot; older versions are older still
		}
		return v.Data, true
	}
	return nil, false
}

// checkpointLoop is the background checkpointer: it fires on the configured
// interval and/or whenever the WAL has grown CheckpointWalMB since the last
// checkpoint, and skips entirely while no new WAL has been written.
func (db *DB) checkpointLoop() {
	defer close(db.ckptDone)
	iv := db.cfg.CheckpointInterval
	poll := iv
	if poll <= 0 || poll > time.Second {
		poll = time.Second // size-trigger polling granularity
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	var last time.Time
	for {
		select {
		case <-db.stopCkpt:
			return
		case <-t.C:
			if db.wlog.Bytes() == db.lastCkptWal.Load() {
				continue // nothing new to bound; an empty checkpoint helps no one
			}
			due := iv > 0 && time.Since(last) >= iv
			grown := db.cfg.CheckpointWalMB > 0 &&
				db.wlog.Bytes()-db.lastCkptWal.Load() >= uint64(db.cfg.CheckpointWalMB)<<20
			if !due && !grown {
				continue
			}
			// A failed checkpoint leaves the previous one authoritative and
			// the log untrimmed; the next due tick tries again.
			_ = db.Checkpoint()
			last = time.Now()
		}
	}
}

// WALStats returns the write-ahead log's cumulative counters: bytes and
// records appended, commit records among them, and fsyncs. Δcommits/Δfsyncs
// over an interval is its mean group-commit size. Without a DataDir every
// counter is zero.
func (db *DB) WALStats() (bytes, records, commits, fsyncs uint64) {
	if db.wlog == nil {
		return 0, 0, 0, 0
	}
	return db.wlog.Stats()
}

// Close shuts the instance down cleanly: the background checkpointer stops,
// the implicit session's open transaction (if any) rolls back, and the WAL
// is flushed, fsynced, and closed. In-memory instances (no DataDir) close
// trivially. Close is idempotent.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	if db.stopCkpt != nil {
		close(db.stopCkpt)
		<-db.ckptDone
	}
	var sessErr error
	if db.session != nil {
		sessErr = db.session.Close()
	}
	if db.wlog != nil {
		if err := db.wlog.Close(); err != nil {
			return err
		}
	}
	return sessErr
}
