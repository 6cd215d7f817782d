package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/vfs"
)

// opList is a plain list of ops as wal.Ops.
type opList []Op

func (l opList) Len() int    { return len(l) }
func (l opList) At(i int) Op { return l[i] }

func testOps(n int) opList {
	ops := make(opList, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, Op{
			Kind:  OpInsert,
			Table: 1,
			ID:    storage.RowID{Page: uint32(i / 128), Slot: uint32(i % 128)},
			Row:   rel.Row{rel.Int(int64(i)), rel.Text(fmt.Sprintf("row-%d", i)), rel.Float(float64(i) / 2)},
		})
	}
	return ops
}

// sameOps reports whether two op lists agree in every field. A rel.Value
// is incomparable (a TEXT's identity is the address of its bytes), so rows
// are compared by their encodings, and a nil row only equals a nil row.
func sameOps(a, b []Op) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.Kind != y.Kind || x.Table != y.Table || x.ID != y.ID || (x.Row == nil) != (y.Row == nil) ||
			!bytes.Equal(rel.EncodeRow(nil, x.Row), rel.EncodeRow(nil, y.Row)) {
			return false
		}
	}
	return true
}

// sameCkptRows is sameOps for checkpoint rows: equal RowIDs and row
// encodings, a nil row or list only equal to a nil one.
func sameCkptRows(a, b []CkptRow) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := &a[i], &b[i]
		if x.ID != y.ID || (x.Row == nil) != (y.Row == nil) ||
			!bytes.Equal(rel.EncodeRow(nil, x.Row), rel.EncodeRow(nil, y.Row)) {
			return false
		}
	}
	return true
}

func TestRecordRoundTrip(t *testing.T) {
	ops := opList{
		{Kind: OpInsert, Table: 3, ID: storage.RowID{Page: 1, Slot: 2}, Row: rel.Row{rel.Int(7), rel.Text("x")}},
		{Kind: OpUpdate, Table: 3, ID: storage.RowID{Page: 1, Slot: 2}, Row: rel.Row{rel.Int(8), rel.Null()}},
		{Kind: OpDelete, Table: 4, ID: storage.RowID{Page: 9, Slot: 0}},
	}
	payload := encodeCommit(nil, 42, ops)
	rec, err := DecodeRecord(payload)
	if err != nil {
		t.Fatalf("decode commit: %v", err)
	}
	if rec.Kind != RecCommit || rec.CommitTS != 42 {
		t.Fatalf("got kind=%d cts=%d", rec.Kind, rec.CommitTS)
	}
	if !sameOps(rec.Ops, ops) {
		t.Fatalf("ops mismatch:\n got %+v\nwant %+v", rec.Ops, ops)
	}

	schema := rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true, NotNull: true},
		rel.Column{Name: "name", Typ: rel.TypeText},
	)
	rec, err = DecodeRecord(EncodeCreateTable(nil, 5, "users", schema))
	if err != nil {
		t.Fatalf("decode create-table: %v", err)
	}
	if rec.Kind != RecCreateTable || rec.TableID != 5 || rec.Name != "users" {
		t.Fatalf("create-table fields: %+v", rec)
	}
	if len(rec.Schema.Cols) != 2 || !rec.Schema.Cols[0].Unique || !rec.Schema.Cols[0].NotNull {
		t.Fatalf("schema mismatch: %+v", rec.Schema.Cols)
	}

	rec, err = DecodeRecord(EncodeDropTable(nil, "users"))
	if err != nil || rec.Kind != RecDropTable || rec.Name != "users" {
		t.Fatalf("drop-table roundtrip: %+v err=%v", rec, err)
	}

	// The index-kind byte is written as 0; a 1, which earlier versions
	// wrote for a hash index, decodes to the same B-tree definition.
	ci := EncodeCreateIndex(nil, 5, "users_name", 1)
	if ci[len(ci)-1] != 0 {
		t.Fatalf("create-index kind byte %d, want 0", ci[len(ci)-1])
	}
	hashKind := append(ci[:len(ci)-1:len(ci)-1], 1)
	for _, payload := range [][]byte{ci, hashKind} {
		rec, err = DecodeRecord(payload)
		if err != nil || rec.Kind != RecCreateIndex || rec.TableID != 5 || rec.Name != "users_name" || rec.Col != 1 {
			t.Fatalf("create-index roundtrip: %+v err=%v", rec, err)
		}
	}
}

func TestDecodeRecordRejectsTrailingBytes(t *testing.T) {
	payload := encodeCommit(nil, 1, testOps(1))
	if _, err := DecodeRecord(append(payload, 0)); err == nil {
		t.Fatal("expected trailing-byte error")
	}
	if _, err := DecodeRecord(payload[:len(payload)-1]); err == nil {
		t.Fatal("expected truncation error")
	}
	if _, err := DecodeRecord([]byte{99}); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestAppendSyncReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		lsn, err := l.AppendCommit(uint64(i+1), testOps(3))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var seen []uint64
	st, err := ReplaySegments(nil, dir, func(r *Record) error {
		seen = append(seen, r.CommitTS)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Records != n || st.MaxCTS != n || st.Truncated {
		t.Fatalf("stats %+v, want %d records", st, n)
	}
	for i, cts := range seen {
		if cts != uint64(i+1) {
			t.Fatalf("record %d has cts %d (file order must equal append order)", i, cts)
		}
	}
}

func TestReplayAcrossSegmentsAndRemoveThrough(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	var sealed uint64
	for i := 0; i < 6; i++ {
		lsn, err := l.AppendCommit(uint64(i+1), testOps(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
		if i == 1 || i == 3 {
			sealed, err = l.Rotate()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	st, err := ReplaySegments(nil, dir, func(*Record) error { return nil })
	if err != nil || st.Records != 6 || st.Segments != 3 {
		t.Fatalf("pre-removal replay: %+v err=%v", st, err)
	}

	// Drop everything up to the second sealed segment; records 5..6 remain.
	if err := l.RemoveThrough(sealed); err != nil {
		t.Fatal(err)
	}
	var first uint64
	st, err = ReplaySegments(nil, dir, func(r *Record) error {
		if first == 0 {
			first = r.CommitTS
		}
		return nil
	})
	if err != nil || st.Records != 2 || first != 5 {
		t.Fatalf("post-removal replay: %+v first=%d err=%v", st, first, err)
	}

	// The live segment must survive even if asked for.
	if err := l.RemoveThrough(1 << 30); err != nil {
		t.Fatal(err)
	}
	segs, _ := ListSegments(nil, dir)
	if len(segs) != 1 {
		t.Fatalf("want only the live segment, got %d", len(segs))
	}
	l.Close()
}

func TestGroupCommitConcurrency(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	const writers, per = 8, 25
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	var ctr uint64
	var ctrMu sync.Mutex
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				ctrMu.Lock()
				ctr++
				cts := ctr
				ctrMu.Unlock()
				lsn, err := l.AppendCommit(cts, testOps(2))
				if err != nil {
					errs <- err
					return
				}
				if err := l.Sync(lsn); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	bytes, records, commits, fsyncs := l.Stats()
	if records != writers*per || commits != writers*per {
		t.Fatalf("records=%d commits=%d, want %d", records, commits, writers*per)
	}
	if bytes == 0 {
		t.Fatal("Stats counted no appended bytes")
	}
	// Each commit needs at most one fsync; grouping should never exceed that.
	if fsyncs == 0 || fsyncs > commits {
		t.Fatalf("fsyncs=%d > commits=%d", fsyncs, commits)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := ReplaySegments(nil, dir, func(*Record) error { return nil })
	if err != nil || st.Records != writers*per {
		t.Fatalf("replay after concurrent commits: %+v err=%v", st, err)
	}
}

func TestSyncIntervalEventuallyFsyncs(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncInterval, Interval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	lsn, err := l.AppendCommit(1, testOps(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(lsn); err != nil { // must not block
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, _, _, fsyncs := l.Stats(); fsyncs > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval ticker never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	l.Close()
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	schema := rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "v", Typ: rel.TypeFloat},
	)
	ck := &Checkpoint{
		Seq:   7,
		Clock: 1234,
		Tables: []CkptTable{{
			ID:     2,
			Name:   "m",
			Schema: schema,
			Indexes: []IndexMeta{
				{Name: "m_id", Col: 0},
				{Name: "m_v", Col: 1},
			},
			Rows: []CkptRow{
				{ID: storage.RowID{Page: 0, Slot: 3}, Row: rel.Row{rel.Int(1), rel.Float(0.5)}},
				{ID: storage.RowID{Page: 2, Slot: 0}, Row: rel.Row{rel.Int(2), rel.Null()}},
			},
		}},
	}
	if err := WriteCheckpoint(nil, dir, ck); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(nil, dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != ck.Seq || got.Clock != ck.Clock || len(got.Tables) != 1 {
		t.Fatalf("header mismatch: %+v", got)
	}
	gt, wt := got.Tables[0], ck.Tables[0]
	if gt.ID != wt.ID || gt.Name != wt.Name || !reflect.DeepEqual(gt.Indexes, wt.Indexes) || !sameCkptRows(gt.Rows, wt.Rows) {
		t.Fatalf("table mismatch:\n got %+v\nwant %+v", gt, wt)
	}
	if len(gt.Schema.Cols) != 2 || gt.Schema.Cols[0].Name != "id" || !gt.Schema.Cols[0].Unique {
		t.Fatalf("schema mismatch: %+v", gt.Schema.Cols)
	}
}

func TestLoadCheckpointMissingAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	ck, err := LoadCheckpoint(nil, dir)
	if err != nil || ck != nil {
		t.Fatalf("empty dir: ck=%v err=%v", ck, err)
	}

	if err := WriteCheckpoint(nil, dir, &Checkpoint{Seq: 1, Clock: 10}); err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(nil, dir, &Checkpoint{Seq: 3, Clock: 30}); err != nil {
		t.Fatal(err)
	}
	ck, err = LoadCheckpoint(nil, dir)
	if err != nil || ck.Seq != 3 {
		t.Fatalf("newest wins: ck=%+v err=%v", ck, err)
	}

	// A corrupt newest checkpoint is a hard error, never a silent fallback:
	// the older checkpoint's segments may already be deleted.
	path := checkpointPath(dir, 3)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(nil, dir); err == nil {
		t.Fatal("corrupt newest checkpoint must fail recovery")
	}
}

func TestRemoveCheckpointsBefore(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 2, 5} {
		if err := WriteCheckpoint(nil, dir, &Checkpoint{Seq: seq, Clock: seq}); err != nil {
			t.Fatal(err)
		}
	}
	if err := RemoveCheckpointsBefore(nil, dir, 5); err != nil {
		t.Fatal(err)
	}
	cks, _ := listCheckpoints(vfs.OS, dir)
	if len(cks) != 1 || cks[0].Seq != 5 {
		t.Fatalf("want only checkpoint 5, got %+v", cks)
	}
}

func TestReplayHardErrorInSealedSegment(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.AppendCommit(1, testOps(2))
	l.Sync(lsn)
	sealed, err := l.Rotate()
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ = l.AppendCommit(2, testOps(2))
	l.Sync(lsn)
	l.Close()

	// Corrupt the sealed (non-final) segment: replay must fail loudly.
	path := segmentPath(dir, sealed)
	data, _ := os.ReadFile(path)
	data[len(data)-3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReplaySegments(nil, dir, func(*Record) error { return nil }); err == nil {
		t.Fatal("corruption in a sealed segment must be a hard error")
	}
}

func TestOpenAppendsAfterExistingSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ := l.AppendCommit(1, testOps(1))
	l.Sync(lsn)
	l.Close()

	l2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	lsn, _ = l2.AppendCommit(2, testOps(1))
	l2.Sync(lsn)
	l2.Close()

	segs, _ := ListSegments(nil, dir)
	if len(segs) != 2 {
		t.Fatalf("reopen must start a fresh segment, got %d", len(segs))
	}
	st, err := ReplaySegments(nil, dir, func(*Record) error { return nil })
	if err != nil || st.Records != 2 || st.MaxCTS != 2 {
		t.Fatalf("replay across reopens: %+v err=%v", st, err)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	_, err = l.AppendCommit(1, testOps(1))
	if err == nil {
		t.Fatal("append after Close must fail")
	}
}

func TestListSegmentsIgnoresStrangers(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{"wal-abc.log", "checkpoint-1.ckpt", "notes.txt", "wal-00000007.log.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := ListSegments(nil, dir)
	if err != nil || len(segs) != 0 {
		t.Fatalf("got %+v err=%v", segs, err)
	}
}

// holdSyncFS wraps vfs.OS; once armed, the first Sync of a segment file
// signals entered and blocks until release is closed.
type holdSyncFS struct {
	vfs.FS
	hold             atomic.Bool
	entered, release chan struct{}
}

type holdSyncFile struct {
	vfs.File
	fs *holdSyncFS
}

func (h *holdSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := h.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &holdSyncFile{File: f, fs: h}, nil
}

func (f *holdSyncFile) Sync() error {
	if f.fs.hold.CompareAndSwap(true, false) {
		close(f.fs.entered)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestRotateWaitsForLeaderSync: a Rotate that runs while a commit's group
// leader is inside its fsync must wait for that fsync instead of closing
// the segment under it. Closing it would fail the leader's fsync and
// poison the log although the record was durable.
func TestRotateWaitsForLeaderSync(t *testing.T) {
	fs := &holdSyncFS{FS: vfs.OS, entered: make(chan struct{}), release: make(chan struct{})}
	l, err := Open(Options{Dir: t.TempDir(), Mode: SyncCommit, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	lsn, err := l.AppendCommit(1, testOps(1))
	if err != nil {
		t.Fatal(err)
	}
	fs.hold.Store(true)
	synced := make(chan error, 1)
	go func() { synced <- l.Sync(lsn) }()
	<-fs.entered

	rotated := make(chan error, 1)
	go func() {
		_, err := l.Rotate()
		rotated <- err
	}()
	var rerr error
	select {
	case rerr = <-rotated:
		t.Error("Rotate returned while the leader's fsync was in flight")
		close(fs.release)
	case <-time.After(100 * time.Millisecond):
		close(fs.release)
		rerr = <-rotated
	}
	if rerr != nil {
		t.Fatalf("Rotate: %v", rerr)
	}
	if err := <-synced; err != nil {
		t.Fatalf("leader's Sync: %v", err)
	}
	if err := l.Err(); err != nil {
		t.Fatalf("log poisoned: %v", err)
	}
}
