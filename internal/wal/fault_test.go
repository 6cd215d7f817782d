package wal

// Fault-injection coverage for the WAL: every error return in log.go,
// checkpoint.go, and replay.go is driven by a scripted vfstest.FaultFS, and the
// durability invariant — acknowledged commits survive recovery — is checked
// under torn writes and ENOSPC. These tests complement crashtest (process
// kills) with deterministic, single-process fault points.

import (
	"errors"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/vfs/vfstest"
)

// faultLog opens a log in a temp dir through the given FaultFS.
func faultLog(t *testing.T, ffs *vfstest.FaultFS, mode SyncMode) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: mode, FS: ffs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return l, dir
}

// appendSync appends one commit record and syncs it, returning the error
// from whichever step failed first.
func appendSync(l *Log, cts uint64) error {
	lsn, err := l.AppendCommit(cts, testOps(2))
	if err != nil {
		return err
	}
	return l.Sync(lsn)
}

func TestFaultOpenMkdirFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpMkdirAll})
	if _, err := Open(Options{Dir: t.TempDir() + "/wal", FS: ffs}); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from MkdirAll, got %v", err)
	}
}

func TestFaultOpenSegmentCreateFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpOpenFile, Path: segmentPrefix})
	if _, err := Open(Options{Dir: t.TempDir(), FS: ffs}); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from segment create, got %v", err)
	}
}

func TestFaultOpenHeaderWriteFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: segmentPrefix, Err: vfstest.ErrNoSpace})
	if _, err := Open(Options{Dir: t.TempDir(), FS: ffs}); !errors.Is(err, vfstest.ErrNoSpace) {
		t.Fatalf("want ENOSPC from header write, got %v", err)
	}
}

func TestFaultOpenDirSyncFails(t *testing.T) {
	// The first sync op during Open is the directory fsync that makes the
	// new segment's directory entry durable (segment fsyncs only happen at
	// commit time).
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpSync})
	if _, err := Open(Options{Dir: t.TempDir(), FS: ffs}); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from dir sync, got %v", err)
	}
}

func TestFaultListSegmentsReadDirFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpReadDir})
	if _, err := ListSegments(ffs, t.TempDir()); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from ReadDir, got %v", err)
	}
}

// TestFaultAppendFlushFails drives the bw.Flush error path in flushAndSync:
// the commit that hits it gets a clean error, and the failure is sticky.
func TestFaultAppendFlushFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	// Write #1 on the segment is the header (during Open); write #2 is the
	// first commit's buffer flush.
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: segmentPrefix, Nth: 2})
	l, _ := faultLog(t, ffs, SyncCommit)
	defer l.Close()

	if err := appendSync(l, 1); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from flush, got %v", err)
	}
	if err := l.Err(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("log not poisoned after flush failure: Err() = %v", err)
	}
}

// TestFaultAppendWritePoisons: a record larger than the 256 KiB buffer is
// written straight to the segment by the append itself. When that write
// fails, the append's error poisons the log as a failed flush does, with the
// original error, and every later append fails.
func TestFaultAppendWritePoisons(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	l, _ := faultLog(t, ffs, SyncCommit)
	defer l.Close()
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: segmentPrefix})

	if _, err := l.AppendDDL(make([]byte, 300<<10)); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from the append's write, got %v", err)
	}
	if err := l.Err(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("log not poisoned after a failed append: Err() = %v", err)
	}
	ffs.ClearFaults()
	if err := appendSync(l, 1); err == nil {
		t.Fatal("an append after the failed one succeeded")
	}
	if err := l.Err(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("Err() = %v, want the first error", err)
	}
}

// TestFaultFsyncPoisonSticky is the core fail-stop property: one failed
// fsync poisons the log permanently. The failing commit sees the raw error;
// every later Sync sees the same sticky error even though the disk has
// "recovered" (faults cleared).
func TestFaultFsyncPoisonSticky(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpSync, Path: segmentPrefix})
	l, _ := faultLog(t, ffs, SyncCommit)
	defer l.Close()

	if err := appendSync(l, 1); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from fsync, got %v", err)
	}
	ffs.ClearFaults() // the device comes back; the log must not trust it
	if err := appendSync(l, 2); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("poison not sticky: second sync got %v", err)
	}
	if err := l.Err(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("Err() = %v, want sticky EIO", err)
	}
	// Close reports the sticky error too — the caller's last chance to
	// learn the tail was never durable.
	if err := l.Close(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("Close() = %v, want sticky EIO", err)
	}
}

// TestFaultNoSpaceTornTailRecovery fills the "disk" mid-segment: a commit's
// flush tears after a few bytes with ENOSPC. The unacknowledged commit is
// torn; every commit acknowledged before it must replay.
func TestFaultNoSpaceTornTailRecovery(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	// Writes on the segment: #1 header, #2..#4 commits 1..3, #5 commit 4
	// (torn after 3 bytes — not even a whole record header).
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: segmentPrefix, Nth: 5, Err: vfstest.ErrNoSpace, Short: 3})
	l, dir := faultLog(t, ffs, SyncCommit)

	var acked []uint64
	for cts := uint64(1); cts <= 4; cts++ {
		if err := appendSync(l, cts); err != nil {
			if !errors.Is(err, vfstest.ErrNoSpace) {
				t.Fatalf("commit %d: want ENOSPC, got %v", cts, err)
			}
			break
		}
		acked = append(acked, cts)
	}
	if len(acked) != 3 {
		t.Fatalf("acked %v, want exactly commits 1..3", acked)
	}
	_ = l.Close() // returns the sticky error; the tail is already on disk

	// Recovery runs on the real filesystem — the fault script modeled the
	// device failing, not the surviving bytes.
	var recovered []uint64
	st, err := ReplaySegments(nil, dir, func(r *Record) error {
		if r.Kind == RecCommit {
			recovered = append(recovered, r.CommitTS)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !st.Truncated {
		t.Fatal("torn tail not detected")
	}
	for i, cts := range acked {
		if i >= len(recovered) || recovered[i] != cts {
			t.Fatalf("acked ⊆ recovered violated: acked %v, recovered %v", acked, recovered)
		}
	}
}

// TestFaultRotateFails verifies a failed rotation leaves the log fully
// usable on the old segment: the new-segment create fails, appends continue,
// and everything replays.
func TestFaultRotateFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	// OpenFile #1 on wal- is the initial segment; #2 is the rotation target.
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpOpenFile, Path: segmentPrefix, Nth: 2})
	l, dir := faultLog(t, ffs, SyncCommit)

	if err := appendSync(l, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from rotation, got %v", err)
	}
	// The old segment stayed current: more commits land and sync fine.
	if err := appendSync(l, 2); err != nil {
		t.Fatalf("append after failed rotation: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	var recovered []uint64
	if _, err := ReplaySegments(nil, dir, func(r *Record) error {
		recovered = append(recovered, r.CommitTS)
		return nil
	}); err != nil {
		t.Fatalf("replay: %v", err)
	}
	if len(recovered) != 2 || recovered[0] != 1 || recovered[1] != 2 {
		t.Fatalf("recovered %v, want [1 2]", recovered)
	}
}

func TestFaultRemoveThroughFails(t *testing.T) {
	ffs := vfstest.NewFaultFS(nil)
	l, _ := faultLog(t, ffs, SyncCommit)
	defer l.Close()
	if err := appendSync(l, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Rotate(); err != nil {
		t.Fatal(err)
	}
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpRemove, Path: segmentPrefix})
	if err := l.RemoveThrough(1); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from segment removal, got %v", err)
	}
	// The failed removal must not have left a gap: segment 1 is still there.
	segs, err := ListSegments(nil, l.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 || segs[0].Seq != 1 {
		t.Fatalf("segments after failed removal: %+v", segs)
	}
}

// testCheckpoint builds a small but non-trivial checkpoint image.
func testCheckpoint(seq uint64) *Checkpoint {
	schema := rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true, NotNull: true},
		rel.Column{Name: "name", Typ: rel.TypeText},
	)
	return &Checkpoint{
		Seq:   seq,
		Clock: seq * 100,
		Tables: []CkptTable{{
			ID:     1,
			Name:   "users",
			Schema: schema,
			Rows: []CkptRow{
				{ID: storage.RowID{Page: 0, Slot: 0}, Row: rel.Row{rel.Int(1), rel.Text("a")}},
				{ID: storage.RowID{Page: 0, Slot: 1}, Row: rel.Row{rel.Int(2), rel.Text("b")}},
			},
		}},
	}
}

// TestFaultCheckpointPublicationAtomic fails checkpoint publication at every
// step — temp-file create, data write, fsync, close, rename, directory sync
// — and verifies the old checkpoint always wins recovery: WriteCheckpoint
// reports the fault and LoadCheckpoint (clean FS) still returns the old
// image, never a torn new one.
func TestFaultCheckpointPublicationAtomic(t *testing.T) {
	steps := []struct {
		name  string
		fault vfstest.Fault
	}{
		{"tmp-create", vfstest.Fault{Op: vfstest.OpOpenFile, Path: ".ckpt.tmp"}},
		{"tmp-write", vfstest.Fault{Op: vfstest.OpWrite, Path: ".ckpt.tmp"}},
		{"tmp-write-torn", vfstest.Fault{Op: vfstest.OpWrite, Path: ".ckpt.tmp", Err: vfstest.ErrNoSpace, Short: 10}},
		{"tmp-fsync", vfstest.Fault{Op: vfstest.OpSync, Path: ".ckpt.tmp"}},
		{"tmp-close", vfstest.Fault{Op: vfstest.OpClose, Path: ".ckpt.tmp"}},
		// Rename is journaled under its destination (the final name).
		{"rename", vfstest.Fault{Op: vfstest.OpRename, Path: checkpointSuffix}},
	}
	for _, step := range steps {
		t.Run(step.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := WriteCheckpoint(nil, dir, testCheckpoint(1)); err != nil {
				t.Fatalf("seed old checkpoint: %v", err)
			}
			ffs := vfstest.NewFaultFS(nil)
			ffs.AddFault(step.fault)
			err := WriteCheckpoint(ffs, dir, testCheckpoint(2))
			if !errors.Is(err, step.fault.Err) && (step.fault.Err != nil || !errors.Is(err, vfstest.ErrIO)) {
				t.Fatalf("WriteCheckpoint under %v: got %v", step.fault, err)
			}
			ck, err := LoadCheckpoint(nil, dir)
			if err != nil {
				t.Fatalf("recovery load after failed publication: %v", err)
			}
			if ck == nil || ck.Seq != 1 {
				t.Fatalf("old checkpoint lost: got %+v", ck)
			}
		})
	}

	// Directory-sync failure is the one step past the point of no return:
	// the rename already landed, so recovery may legitimately see the new
	// checkpoint — but it must be whole, and the error must still surface
	// so the checkpointer does not delete the old WAL segments.
	t.Run("dir-sync", func(t *testing.T) {
		dir := t.TempDir()
		if err := WriteCheckpoint(nil, dir, testCheckpoint(1)); err != nil {
			t.Fatal(err)
		}
		ffs := vfstest.NewFaultFS(nil)
		// Sync #1 is the tmp-file fsync, #2 the directory fsync after rename.
		ffs.AddFault(vfstest.Fault{Op: vfstest.OpSync, Nth: 2})
		if err := WriteCheckpoint(ffs, dir, testCheckpoint(2)); !errors.Is(err, vfstest.ErrIO) {
			t.Fatalf("want EIO from dir sync, got %v", err)
		}
		ck, err := LoadCheckpoint(nil, dir)
		if err != nil {
			t.Fatalf("load after dir-sync failure: %v", err)
		}
		if ck == nil || (ck.Seq != 1 && ck.Seq != 2) {
			t.Fatalf("checkpoint set corrupted: %+v", ck)
		}
	})
}

// TestFaultCheckpointPublicationOrder pins the order WriteCheckpoint's
// filesystem operations reach the disk: the temp file is written, fsynced
// and closed before the rename publishes it under the final name, and the
// directory is fsynced after the rename. A rename ahead of the file's fsync
// would publish an image a crash can leave torn under the final name.
func TestFaultCheckpointPublicationOrder(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(nil)
	if err := WriteCheckpoint(ffs, dir, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	final := checkpointPath(dir, 1)
	tmp := final + ".tmp"
	want := []vfstest.OpRecord{
		{Op: vfstest.OpOpenFile, Path: tmp},
		{Op: vfstest.OpWrite, Path: tmp},
		{Op: vfstest.OpSync, Path: tmp},
		{Op: vfstest.OpClose, Path: tmp},
		{Op: vfstest.OpRename, Path: final}, // journaled under the destination
		{Op: vfstest.OpOpen, Path: dir},
		{Op: vfstest.OpSync, Path: dir},
		{Op: vfstest.OpClose, Path: dir},
	}
	got := ffs.Journal()
	if len(got) != len(want) {
		t.Fatalf("journal has %d ops, want %d: %+v", len(got), len(want), got)
	}
	for i, w := range want {
		if got[i].Op != w.Op || got[i].Path != w.Path || got[i].Err != nil {
			t.Fatalf("op %d = %s %s (err %v), want %s %s; journal %+v",
				i, got[i].Op, got[i].Path, got[i].Err, w.Op, w.Path, got)
		}
	}
}

func TestFaultLoadCheckpointReadFails(t *testing.T) {
	dir := t.TempDir()
	if err := WriteCheckpoint(nil, dir, testCheckpoint(1)); err != nil {
		t.Fatal(err)
	}
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpReadFile, Path: checkpointSuffix})
	if _, err := LoadCheckpoint(ffs, dir); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from checkpoint read, got %v", err)
	}
	ffs2 := vfstest.NewFaultFS(nil)
	ffs2.AddFault(vfstest.Fault{Op: vfstest.OpReadDir})
	if _, err := LoadCheckpoint(ffs2, dir); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from checkpoint listing, got %v", err)
	}
}

func TestFaultRemoveCheckpointsBeforeFails(t *testing.T) {
	dir := t.TempDir()
	for seq := uint64(1); seq <= 2; seq++ {
		if err := WriteCheckpoint(nil, dir, testCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpRemove, Path: checkpointSuffix})
	if err := RemoveCheckpointsBefore(ffs, dir, 2); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from checkpoint removal, got %v", err)
	}
	// The newest checkpoint is untouched either way.
	ck, err := LoadCheckpoint(nil, dir)
	if err != nil || ck == nil || ck.Seq != 2 {
		t.Fatalf("newest checkpoint lost: ck=%+v err=%v", ck, err)
	}
}

func TestFaultReplayReadFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	if err := appendSync(l, 1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ffs := vfstest.NewFaultFS(nil)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpReadFile, Path: segmentPrefix})
	if _, err := ReplaySegments(ffs, dir, func(*Record) error { return nil }); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("want EIO from segment read, got %v", err)
	}
}

// TestFaultCrashPointAckedRecovered is the crashtest invariant under a
// deterministic crash-point: commits stream in, the power "fails" at a
// scripted write, and every commit acknowledged before the crash must be
// recovered from the surviving bytes.
func TestFaultCrashPointAckedRecovered(t *testing.T) {
	for _, crashNth := range []int{3, 6, 10} {
		ffs := vfstest.NewFaultFS(nil)
		ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: segmentPrefix, Nth: crashNth, Err: vfstest.ErrNoSpace, Short: 2, Crash: true})
		l, dir := faultLog(t, ffs, SyncCommit)

		var acked []uint64
		for cts := uint64(1); cts <= 20; cts++ {
			if err := appendSync(l, cts); err != nil {
				break // crash fired somewhere in append/flush/fsync
			}
			acked = append(acked, cts)
		}
		if !ffs.Crashed() {
			t.Fatalf("crashNth=%d: crash point never fired", crashNth)
		}
		_ = l.Close()

		var recovered []uint64
		st, err := ReplaySegments(nil, dir, func(r *Record) error {
			if r.Kind == RecCommit {
				recovered = append(recovered, r.CommitTS)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("crashNth=%d: replay: %v", crashNth, err)
		}
		rec := make(map[uint64]bool, len(recovered))
		for _, cts := range recovered {
			rec[cts] = true
		}
		for _, cts := range acked {
			if !rec[cts] {
				t.Fatalf("crashNth=%d: acked commit %d lost (acked %v, recovered %v, stats %+v)",
					crashNth, cts, acked, recovered, st)
			}
		}
	}
}
