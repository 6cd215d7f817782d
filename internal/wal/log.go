package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurdb/internal/vfs"
)

// SyncMode selects when appended records are forced to stable storage.
type SyncMode int

const (
	// SyncCommit fsyncs before a commit is acknowledged, with leader/follower
	// group commit batching concurrent committers onto one fsync (default).
	SyncCommit SyncMode = iota
	// SyncInterval acknowledges immediately and fsyncs on a background timer
	// (the PostgreSQL synchronous_commit=off trade: a crash may lose the last
	// interval of acknowledged commits, but never corrupts recovered state).
	SyncInterval
	// SyncOff never fsyncs; records still reach the OS via buffered writes.
	// A machine crash loses everything since the last checkpoint; a process
	// crash loses only the records still in the user-space buffer.
	SyncOff
)

// ParseSyncMode maps the wal_sync knob's string form ("commit", "interval",
// "off") to a SyncMode.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "commit", "group":
		return SyncCommit, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("wal: unknown sync mode %q (want commit|interval|off)", s)
	}
}

// Options configures Open.
type Options struct {
	// Dir is the data directory holding wal-*.log segments and checkpoints.
	Dir string
	// Mode selects the sync policy (default SyncCommit).
	Mode SyncMode
	// Interval is the background fsync period for SyncInterval (default 2ms).
	Interval time.Duration
	// FS is the filesystem the log writes through (default vfs.OS). Tests
	// pass a vfstest.FaultFS here to script disk faults deterministically.
	FS vfs.FS
}

// segmentPrefix/segmentSuffix name WAL segment files: wal-<seq>.log.
const (
	segmentPrefix = "wal-"
	segmentSuffix = ".log"
	// segmentHeaderLen is the fixed per-segment header: 8-byte magic plus
	// the 8-byte little-endian segment sequence number.
	segmentHeaderLen = 16
	// recordHeaderLen prefixes every record: u32 payload length + u32 CRC32C
	// of the payload.
	recordHeaderLen = 8
)

var segmentMagic = [8]byte{'N', 'D', 'B', 'W', 'A', 'L', '0', '1'}

// Log is the write-ahead log. Appends go through an in-process buffer under
// mu; Sync makes them durable according to the configured mode. The
// checkpointer cuts the log with Rotate at a point where no commit is in
// flight (the transaction manager's Quiesce).
type Log struct {
	dir  string
	fs   vfs.FS
	mode SyncMode

	mu        sync.Mutex // guards file, bw, seq/offset state
	f         vfs.File
	bw        *bufio.Writer
	seq       uint64 // current segment sequence number
	appendLSN uint64 // records appended (monotonic, process-lifetime)
	scratch   []byte // payload build buffer

	// Group commit state: every fsync runs in syncLeader, one leader at a
	// time. Followers wait on cond until syncedLSN covers their record; the
	// leader flushes + fsyncs, runs any segment swap or close while still
	// leader, and publishes the new watermark.
	syncMu    sync.Mutex
	syncCond  *sync.Cond
	syncedLSN uint64
	syncing   bool
	syncErr   error // sticky: a failed append or fsync poisons the log
	// poison mirrors syncErr for lock-free reads: the commit path's
	// fail-stop check (Err) runs before every logged commit and must not
	// contend with group-commit waiters on syncMu.
	poison atomic.Pointer[error]

	closed   atomic.Bool
	stopTick chan struct{}
	tickDone chan struct{}

	bytes   atomic.Uint64 // payload+header bytes appended
	fsyncs  atomic.Uint64
	records atomic.Uint64
	commits atomic.Uint64 // commit records appended (group-size numerator)
}

// Open creates or opens the log in opts.Dir, appending to a fresh segment
// after any existing ones (recovery reads the old segments; new records must
// never interleave into a possibly-torn tail).
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	fs := opts.FS
	if fs == nil {
		fs = vfs.OS
	}
	if err := fs.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	l := &Log{
		dir:  opts.Dir,
		fs:   fs,
		mode: opts.Mode,
	}
	l.syncCond = sync.NewCond(&l.syncMu)
	segs, err := ListSegments(fs, opts.Dir)
	if err != nil {
		return nil, err
	}
	next := uint64(1)
	if n := len(segs); n > 0 {
		next = segs[n-1].Seq + 1
	}
	if err := l.openSegmentLocked(next); err != nil {
		return nil, err
	}
	if opts.Mode == SyncInterval {
		iv := opts.Interval
		if iv <= 0 {
			iv = 2 * time.Millisecond
		}
		l.stopTick = make(chan struct{})
		l.tickDone = make(chan struct{})
		go l.tickLoop(iv)
	}
	return l, nil
}

// tickLoop is the SyncInterval background fsync driver.
func (l *Log) tickLoop(iv time.Duration) {
	defer close(l.tickDone)
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-l.stopTick:
			return
		case <-t.C:
			_ = l.syncLeader(0, nil) // a failure poisons the log; commits report it
		}
	}
}

// openSegmentLocked starts segment seq. Callers hold mu (or have exclusive
// access during Open).
func (l *Log) openSegmentLocked(seq uint64) error {
	path := segmentPath(l.dir, seq)
	f, err := l.fs.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr [segmentHeaderLen]byte
	copy(hdr[:], segmentMagic[:])
	binary.LittleEndian.PutUint64(hdr[8:], seq)
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close() // error path: the write failure is the error to report
		return err
	}
	// Make the directory entry durable now: a commit fsync later only
	// covers the file's data, not its existence in the directory.
	if err := syncDir(l.fs, l.dir); err != nil {
		_ = f.Close() // error path: the dir-sync failure is the error to report
		return err
	}
	l.f = f
	l.seq = seq
	if l.bw == nil {
		l.bw = bufio.NewWriterSize(f, 256<<10)
	} else {
		l.bw.Reset(f)
	}
	return nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", segmentPrefix, seq, segmentSuffix))
}

// SegmentRef names one on-disk segment.
type SegmentRef struct {
	Seq  uint64
	Path string
}

// ListSegments returns the data directory's WAL segments in sequence order.
func ListSegments(fs vfs.FS, dir string) ([]SegmentRef, error) {
	if fs == nil {
		fs = vfs.OS
	}
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
		if !strings.HasPrefix(name, segmentPrefix) || !strings.HasSuffix(name, segmentSuffix) {
			continue
		}
		seqStr := strings.TrimSuffix(strings.TrimPrefix(name, segmentPrefix), segmentSuffix)
		seq, err := strconv.ParseUint(seqStr, 10, 64)
		if err != nil {
			continue
		}
		out = append(out, SegmentRef{Seq: seq, Path: filepath.Join(dir, name)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq < out[j].Seq })
	return out, nil
}

// AppendCommit appends one committed transaction's redo record and returns
// its LSN for Sync. The transaction manager calls it under its commit lock,
// so records appear in commit-timestamp order.
func (l *Log) AppendCommit(cts uint64, ops Ops) (uint64, error) {
	l.mu.Lock()
	l.scratch = encodeCommit(l.scratch[:0], cts, ops)
	lsn, err := l.appendLocked(l.scratch)
	l.mu.Unlock()
	if err != nil {
		return 0, l.failAppend(err)
	}
	l.commits.Add(1)
	return lsn, nil
}

// AppendDDL appends a pre-encoded DDL payload (EncodeCreateTable and
// friends). The caller holds the transaction manager's commit lock
// (Quiesce) so the record is ordered against every commit record.
func (l *Log) AppendDDL(payload []byte) (uint64, error) {
	l.mu.Lock()
	lsn, err := l.appendLocked(payload)
	l.mu.Unlock()
	if err != nil {
		return 0, l.failAppend(err)
	}
	return lsn, nil
}

// errClosed is an append's error after Close.
var errClosed = errors.New("wal: log closed")

// failAppend makes a failed append's write error the log's poison, as a
// failed fsync's is: the buffered writer fails every later write, and the
// segment may end in a torn record nothing may follow. It runs after mu is
// released, because syncMu is taken before mu.
func (l *Log) failAppend(err error) error {
	if !errors.Is(err, errClosed) {
		l.syncMu.Lock()
		l.poisonLocked(err)
		l.syncMu.Unlock()
	}
	return err
}

// poisonLocked makes err the log's sticky error unless it has one already.
// The caller holds syncMu.
func (l *Log) poisonLocked(err error) {
	if l.syncErr == nil {
		l.syncErr = err
		l.poison.Store(&err)
	}
}

func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if l.closed.Load() {
		return 0, errClosed
	}
	var hdr [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))
	if _, err := l.bw.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.bw.Write(payload); err != nil {
		return 0, err
	}
	l.appendLSN++
	l.records.Add(1)
	l.bytes.Add(uint64(len(payload) + recordHeaderLen))
	return l.appendLSN, nil
}

// Sync blocks until the record at lsn is durable under the configured mode.
// Under SyncCommit one caller becomes the fsync leader while later arrivals
// wait; the leader's single fsync covers every record appended before it
// flushed, so concurrent committers share the disk round trip.
func (l *Log) Sync(lsn uint64) error {
	if l.mode != SyncCommit {
		// Acknowledge immediately. Interval mode's ticker (or Close) will
		// flush + fsync behind us; Off mode flushes opportunistically so the
		// user-space buffer stays bounded.
		return nil
	}
	return l.syncLeader(lsn, nil)
}

// syncLeader is the log's one fsync path: commits (Sync), the interval
// ticker, Rotate and Close all go through it, so the segment a leader
// fsyncs is never swapped or closed under it. It waits until no other
// leader runs — or, for a commit (lsn > 0), until some leader's fsync
// covers lsn or the log is poisoned — then flushes and fsyncs the current
// segment, skipping the fsync on a poisoned log, and, still leader, runs
// then (if non-nil) with the fsync's error, returning what then returns. A
// failed fsync poisons the log; an error of then's own does not.
func (l *Log) syncLeader(lsn uint64, then func(error) error) error {
	l.syncMu.Lock()
	for {
		if lsn > 0 && (l.syncErr != nil || l.syncedLSN >= lsn) {
			err := l.syncErr
			l.syncMu.Unlock()
			return err
		}
		if !l.syncing {
			break
		}
		l.syncCond.Wait()
	}
	l.syncing = true
	err := l.syncErr
	l.syncMu.Unlock()

	healthy := err == nil
	var target uint64
	if healthy {
		target, err = l.flushAndSync()
	}
	serr := err
	if then != nil {
		err = then(err)
	}

	l.syncMu.Lock()
	l.syncing = false
	if healthy && serr != nil {
		l.poisonLocked(serr)
	} else if healthy && target > l.syncedLSN {
		l.syncedLSN = target
	}
	l.syncCond.Broadcast()
	l.syncMu.Unlock()
	return err
}

// Err returns the sticky poison error, or nil while the log is healthy.
// Once an append's write or an fsync has failed the log never un-poisons:
// the kernel may have dropped the dirty pages the failed fsync covered, so no
// later fsync can retroactively make those records durable, and a failed
// write leaves the buffered writer failing and the segment possibly torn.
// Callers use this as a fail-stop check before accepting new work;
// restart-and-recover is the only way back.
func (l *Log) Err() error {
	if p := l.poison.Load(); p != nil {
		return *p
	}
	return nil
}

// flushAndSync pushes the user-space buffer to the OS and fsyncs the current
// segment, returning the LSN the fsync covers.
func (l *Log) flushAndSync() (lsn uint64, err error) {
	l.mu.Lock()
	lsn = l.appendLSN
	err = l.bw.Flush()
	f := l.f
	l.mu.Unlock()
	if err != nil {
		return lsn, err
	}
	if err := f.Sync(); err != nil {
		return lsn, err
	}
	l.fsyncs.Add(1)
	return lsn, nil
}

// Rotate seals the current segment (flush + fsync) and starts a new one,
// returning the sealed segment's sequence number. The swap runs as the
// fsync leader, so no commit's fsync is in flight on the sealed segment.
// The caller holds the commit lock (Quiesce), so no commit record lands
// on the wrong side of the boundary.
func (l *Log) Rotate() (sealed uint64, err error) {
	err = l.syncLeader(0, func(err error) error {
		if err != nil {
			return err
		}
		l.mu.Lock()
		defer l.mu.Unlock()
		old := l.f
		if err := l.openSegmentLocked(l.seq + 1); err != nil {
			// The old segment stays current; appends continue into it.
			l.f = old
			l.bw.Reset(old)
			return err
		}
		sealed = l.seq - 1
		// The sealed segment's bytes are already durable and the rotation
		// has committed — a descriptor-release failure here must not be
		// reported as a failed rotation.
		_ = old.Close()
		return nil
	})
	return sealed, err
}

// RemoveThrough deletes segments with sequence <= seq, oldest first. The
// oldest-first order preserves the replay invariant that the retained
// segments are always a suffix: a crash mid-removal leaves extra old
// segments, never a gap.
func (l *Log) RemoveThrough(seq uint64) error {
	segs, err := ListSegments(l.fs, l.dir)
	if err != nil {
		return err
	}
	for _, s := range segs {
		if s.Seq > seq {
			break
		}
		l.mu.Lock()
		cur := l.seq
		l.mu.Unlock()
		if s.Seq >= cur {
			break // never delete the live segment
		}
		if err := l.fs.Remove(s.Path); err != nil {
			return err
		}
	}
	return nil
}

// Stats reports cumulative append/sync counters.
func (l *Log) Stats() (bytes, records, commits, fsyncs uint64) {
	return l.bytes.Load(), l.records.Load(), l.commits.Load(), l.fsyncs.Load()
}

// Bytes returns the bytes appended so far (checkpoint trigger input).
func (l *Log) Bytes() uint64 { return l.bytes.Load() }

// Dir returns the data directory.
func (l *Log) Dir() string { return l.dir }

// FS returns the filesystem the log writes through.
func (l *Log) FS() vfs.FS { return l.fs }

// Close flushes, fsyncs, and closes the log. Further appends fail.
func (l *Log) Close() error {
	if l.closed.Swap(true) {
		return nil
	}
	if l.stopTick != nil {
		close(l.stopTick)
		<-l.tickDone
	}
	return l.syncLeader(0, func(err error) error {
		l.mu.Lock()
		defer l.mu.Unlock()
		if ferr := l.f.Close(); err == nil {
			err = ferr
		}
		return err
	})
}
