// Package txn implements the SQL engine's transaction manager: MVCC
// snapshot isolation with first-updater-wins write conflicts, the engine's
// one isolation level. Snapshot isolation admits write skew (two
// transactions each read what the other writes and both commit); no
// serializable level is offered. This is the engine the paper's
// "PostgreSQL" baseline maps onto; the high-throughput learned-CC testbed
// of Fig. 7, with its own SSI, 2PL, OCC and Polyjuice baselines, lives in
// internal/bench/cc.
package txn

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/wal"
)

// Status is the lifecycle state of a transaction.
type Status uint8

// Transaction states.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// ErrWriteConflict is returned when first-updater-wins detects a concurrent
// writer on the same row.
var ErrWriteConflict = errors.New("txn: write-write conflict")

// ErrTxnFinished is returned when operating on a committed/aborted txn.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// ErrReadOnly is returned by writing commits after the write-ahead log has
// poisoned (a failed fsync whose dirty pages the kernel may have dropped).
// The engine fail-stops its write path: reads keep serving, every write is
// rejected with an error wrapping this sentinel, and a restart — which
// replays the durable log prefix — is the only way back to writability.
var ErrReadOnly = errors.New("txn: database is read-only (WAL poisoned; restart to recover)")

// IsolationLevel names an isolation level for Begin. Snapshot is the only
// one.
type IsolationLevel uint8

// Snapshot is snapshot isolation with first-updater-wins.
const Snapshot IsolationLevel = 0

type writeRec struct {
	heap    *storage.Heap
	id      storage.RowID
	created *storage.Version // new version we prepended (nil for delete)
	old     *storage.Version // previous head (nil for insert)
	kind    byte             // 'i', 'u', 'd'
}

// Txn is a transaction handle.
type Txn struct {
	ID      uint64
	StartTS uint64

	mu     sync.Mutex
	status Status
	writes []writeRec
}

// Status returns the transaction status.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// WriteStripeCount is the number of independent claim locks the manager
// partitions writers over. Claims hash (table, page) onto a stripe, so
// writers touching disjoint page sets never contend; 64 matches the
// executor's join-build striping and keeps the padded lock array small.
const WriteStripeCount = 64

// writeStripe is one claim lock, padded to its own cache line so stripes
// hashed to adjacent slots don't false-share under heavy write traffic.
type writeStripe struct {
	mu sync.Mutex
	_  [56]byte
}

// Manager coordinates transactions over heaps.
type Manager struct {
	mu     sync.RWMutex
	nextID uint64
	active map[uint64]*Txn

	// clock is the timestamp of the last commit whose stamps are all in
	// place: Begin snapshots it, and a writing commit stores its timestamp
	// here only after stamping its versions (see Commit). commitMu
	// serializes those commits, and committer names its holder in
	// invariants builds.
	clock     atomic.Uint64
	commitMu  sync.Mutex
	committer lockHolder

	// stripes partitions write claims (and their abort undo) by the row's
	// (table, page): the per-row test-and-set of XMax and the head swap
	// must be atomic against other claimers of the same row, but claims on
	// different pages are independent. A claim takes exactly one stripe at
	// a time — batch claims lock per page run, never holding two stripes —
	// so no lock ordering is needed and deadlock is impossible. Commit
	// takes no stripes at all (and no stripe is taken under the commit
	// lock): it only stamps versions the transaction already claimed, and
	// concurrent claimers observe the claim via XMax.
	stripes [WriteStripeCount]writeStripe

	// stripeClaims/stripeWaits count stripe acquisitions and the subset
	// that had to block (TryLock failed): write-path contention, read
	// through StripeStats.
	stripeClaims atomic.Uint64
	stripeWaits  atomic.Uint64

	// log, when set, receives every writing transaction's redo record at
	// commit (see Commit for the ordering protocol). Installed once at
	// boot, before any transaction runs.
	log CommitLog

	commits, aborts uint64
}

// CommitLog is the durability hook the WAL implements. The manager calls
// AppendCommit under its commit lock before any stamp becomes visible (so
// a transaction can never be observed — and built upon — before its redo
// record is in the log), and Sync after the lock, blocking the
// acknowledgment until the record is durable under the configured policy.
type CommitLog interface {
	AppendCommit(cts uint64, ops []wal.Op) (lsn uint64, err error)
	Sync(lsn uint64) error
	// Err reports the log's sticky poison state (nil while healthy). The
	// manager checks it before every logged commit as a fail-stop: once an
	// fsync has failed, no further commit may become visible in memory,
	// because its durability could never be guaranteed.
	Err() error
}

// SetCommitLog installs the durability hook. Must be called before any
// transaction begins (boot-time only): the field is read without
// synchronization on the commit path.
func (m *Manager) SetCommitLog(l CommitLog) { m.log = l }

// Quiesce runs fn under the commit lock, passing the clock: no commit is
// between drawing its timestamp and storing it, so every commit at or
// before clock is stamped (and logged) and no later one has begun. The
// checkpoint cut and DDL, whose log records must fall between commit
// records, run here.
func (m *Manager) Quiesce(fn func(clock uint64) error) error {
	m.lockCommits()
	defer m.unlockCommits()
	return fn(m.clock.Load())
}

// lockCommits and unlockCommits take and release the commit lock; under
// -tags=invariants they also record its holder.
func (m *Manager) lockCommits() {
	m.commitMu.Lock()
	m.committer.set()
}

func (m *Manager) unlockCommits() {
	m.committer.clear()
	m.commitMu.Unlock()
}

// RestoreClock fast-forwards the commit clock after WAL replay so new
// commits stamp timestamps beyond every recovered version. Boot-time only.
func (m *Manager) RestoreClock(ts uint64) { m.clock.Store(ts) }

// NewManager creates a transaction manager.
func NewManager() *Manager {
	return &Manager{active: make(map[uint64]*Txn)}
}

// stripeIndex hashes a (table, page) pair onto a claim stripe.
func stripeIndex(table int, page uint32) uint32 {
	h := uint32(table)*0x9e3779b1 ^ page*0x85ebca6b
	return (h ^ h>>16) % WriteStripeCount
}

// withStripe runs fn holding claim stripe si, counting contention for
// StripeStats. It is the only code that touches a stripe's lock,
// so every claim is taken here — one stripe per call, released before it
// returns. Calling withStripe from inside fn (a second stripe) or under the
// commit lock panics under -tags=invariants.
func (m *Manager) withStripe(si uint32, fn func()) {
	stripeEnter(&m.committer)
	m.stripeClaims.Add(1)
	if !m.stripes[si].mu.TryLock() {
		m.stripeWaits.Add(1)
		m.stripes[si].mu.Lock()
	}
	fn()
	m.stripes[si].mu.Unlock()
	stripeExit()
}

// StripeStats reports cumulative claim-stripe acquisitions and how many of
// them had to wait for a concurrent writer on the same stripe.
//
//neurdb:reserved direction 1
func (m *Manager) StripeStats() (claims, waits uint64) {
	return m.stripeClaims.Load(), m.stripeWaits.Load()
}

// Begin starts a snapshot-isolation transaction. Nothing reads either
// argument: level can only be Snapshot, and a read-only transaction runs
// exactly as a read-write one that writes nothing.
func (m *Manager) Begin(level IsolationLevel, readOnly bool) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	t := &Txn{ID: m.nextID, StartTS: m.clock.Load(), status: StatusActive}
	m.active[t.ID] = t
	return t
}

// Stats reports cumulative commit and abort counts; ROLLBACK counts as an
// abort.
//
//neurdb:reserved direction 1
func (m *Manager) Stats() (commits, aborts uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.commits, m.aborts
}

// OldestActiveTS returns the snapshot horizon for vacuum: the minimum
// StartTS among active transactions, or the current clock if none.
//
//neurdb:reserved direction 5
func (m *Manager) OldestActiveTS() uint64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	horizon := m.clock.Load()
	for _, t := range m.active {
		if t.StartTS < horizon {
			horizon = t.StartTS
		}
	}
	return horizon
}

// visibleVersion walks the chain from head and returns the first version
// visible to t under its snapshot, or nil.
func (m *Manager) visibleVersion(head *storage.Version, t *Txn) *storage.Version {
	for v := head; v != nil; v = v.Next() {
		if m.versionVisible(v, t) {
			return v
		}
	}
	return nil
}

func (m *Manager) versionVisible(v *storage.Version, t *Txn) bool {
	// Created by self: visible unless also deleted by self.
	if v.XMin == t.ID {
		return v.XMax() != t.ID
	}
	// A commit stores the clock only after its stamps, so the snapshot
	// holds exactly the commits whose stamps are in place: a missing stamp
	// (0) is a creator outside the snapshot, as is one past StartTS.
	if begin := v.BeginTS(); begin == 0 || begin > t.StartTS {
		return false
	}
	if v.XMax() == t.ID {
		return false // we deleted it ourselves
	}
	// Any other deleter hides the version only once its stamp is in the
	// snapshot; an unstamped EndTS is InfinityTS.
	return v.EndTS() > t.StartTS
}

// InsertBatch adds rows as part of t with one heap lock acquisition and one
// write-set append for the whole batch, and returns the assigned RowIDs in
// row order. It is the only way a row enters a heap outside recovery.
func (m *Manager) InsertBatch(h *storage.Heap, rows []rel.Row, t *Txn) ([]storage.RowID, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	if t.Status() != StatusActive {
		return nil, ErrTxnFinished
	}
	ids, heads := h.InsertBatch(rows, t.ID,
		make([]storage.RowID, 0, len(rows)), make([]*storage.Version, 0, len(rows)))
	recs := make([]writeRec, len(ids))
	for i, id := range ids {
		recs[i] = writeRec{heap: h, id: id, created: heads[i], kind: 'i'}
	}
	t.mu.Lock()
	t.writes = append(t.writes, recs...)
	t.mu.Unlock()
	return ids, nil
}

// claimLocked validates and claims the version of head visible to t,
// installing the replacement head for updates. The caller holds the claim
// stripe covering the row's (table, page).
func (m *Manager) claimLocked(h *storage.Heap, id storage.RowID, head *storage.Version, newRow rel.Row, t *Txn, kind byte) (writeRec, error) {
	if head == nil {
		return writeRec{}, fmt.Errorf("txn: modify missing row %v", id)
	}
	vis := m.visibleVersion(head, t)
	if vis == nil {
		return writeRec{}, ErrWriteConflict // row gone or not yet visible
	}
	// First-updater-wins: someone else already claimed this version, an
	// active writer or one that committed after our snapshot.
	if xmax := vis.XMax(); xmax != 0 && xmax != t.ID {
		return writeRec{}, ErrWriteConflict
	}
	// If the head is newer than our visible version, a concurrent writer
	// already installed a successor: snapshot write conflict.
	if vis != head && head.XMin != t.ID {
		return writeRec{}, ErrWriteConflict
	}
	// Claim.
	vis.SetXMax(t.ID)
	var created *storage.Version
	if kind == 'u' {
		created = storage.NewVersion(newRow, t.ID, head)
		h.SetHead(id, created)
	}
	return writeRec{heap: h, id: id, created: created, old: vis, kind: kind}, nil
}

// UpdateBatch replaces the visible versions of ids with newRows (aligned
// slices). One claim-stripe acquisition and one batched head lookup cover
// each page run of the batch,
// so page-clustered DML pays per-page instead of per-row locking — and
// because the stripes partition by page, concurrent batch writers on
// disjoint pages proceed in parallel. On the first conflicting row the
// error is returned immediately; rows already claimed stay recorded in the
// transaction's write set, and the caller is expected to abort (undoing
// them) as with any mid-statement write conflict.
func (m *Manager) UpdateBatch(h *storage.Heap, ids []storage.RowID, newRows []rel.Row, t *Txn) error {
	return m.modifyBatch(h, ids, newRows, t, 'u')
}

// DeleteBatch deletes the visible versions of ids. Semantics match
// UpdateBatch with no replacement rows.
func (m *Manager) DeleteBatch(h *storage.Heap, ids []storage.RowID, t *Txn) error {
	return m.modifyBatch(h, ids, nil, t, 'd')
}

func (m *Manager) modifyBatch(h *storage.Heap, ids []storage.RowID, newRows []rel.Row, t *Txn, kind byte) error {
	if len(ids) == 0 {
		return nil
	}
	if t.Status() != StatusActive {
		return ErrTxnFinished
	}
	heads := make([]*storage.Version, 0, storage.RowsPerPage)
	recs := make([]writeRec, 0, len(ids))
	var firstErr error
	// Claim page run by page run: each run of ids on the same page takes
	// its stripe once, resolves heads under it (so a concurrent writer's
	// head swap cannot slip between lookup and claim), and claims every
	// row of the run. Only one stripe is ever held at a time, so
	// concurrent batches need no lock ordering.
	for start := 0; start < len(ids) && firstErr == nil; {
		end := start + 1
		for end < len(ids) && ids[end].Page == ids[start].Page {
			end++
		}
		m.withStripe(stripeIndex(h.TableID, ids[start].Page), func() {
			heads = h.Heads(ids[start:end], heads[:0])
			for i := start; i < end; i++ {
				var newRow rel.Row
				if kind == 'u' {
					newRow = newRows[i]
				}
				rec, err := m.claimLocked(h, ids[i], heads[i-start], newRow, t, kind)
				if err != nil {
					firstErr = err
					return
				}
				recs = append(recs, rec)
			}
		})
		start = end
	}
	if len(recs) > 0 {
		t.mu.Lock()
		t.writes = append(t.writes, recs...)
		t.mu.Unlock()
	}
	return firstErr
}

// Commit finalizes t.
//
// A transaction that wrote something commits under the commit lock, in
// four steps: draw cts = clock+1, append the redo record when a CommitLog
// is installed, stamp the versions, store the clock. The clock therefore
// never names a commit whose stamps are missing, and a snapshot holds
// exactly the commits whose stamps it can see. The append precedes the
// stamps: if T2 ever reads T1's writes, T1's record precedes T2's in the
// log, so a log prefix is always causally closed. The call returns —
// acknowledging the commit — only after Sync reports the record durable
// under the configured policy. A transaction that wrote nothing draws no
// timestamp and takes no lock.
func (m *Manager) Commit(t *Txn) error {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	writes := t.writes
	t.mu.Unlock()

	log := m.log
	logged := log != nil && len(writes) > 0
	var lsn uint64
	if len(writes) > 0 {
		var ops []wal.Op
		if logged {
			// Fail-stop: a poisoned log means the last fsync's pages may
			// already be gone from the kernel, so no new commit can ever be
			// made durable. Reject before any in-memory state changes; the
			// first commit that *caused* the poison got the raw fsync error
			// from Sync below, and every commit after it degrades to
			// read-only here.
			if perr := log.Err(); perr != nil {
				m.Abort(t)
				return fmt.Errorf("%w (cause: %v)", ErrReadOnly, perr)
			}
			ops = t.redoOps()
		}
		// No claim stripes are taken here: every version being stamped was
		// claimed earlier (XMax set, head swapped), so concurrent claimers
		// already observe the conflict through XMax.
		m.lockCommits()
		cts := m.clock.Load() + 1
		if logged {
			var err error
			if lsn, err = log.AppendCommit(cts, ops); err != nil {
				// Nothing reached the log (a failed buffered write leaves the
				// on-disk prefix consistent), so rolling the in-memory claims
				// back keeps both sides agreeing the transaction never
				// happened.
				m.unlockCommits()
				m.Abort(t)
				return fmt.Errorf("txn: wal append: %w", err)
			}
		}
		for _, w := range writes {
			switch w.kind {
			case 'i':
				w.created.SetBeginTS(cts)
			case 'u':
				w.created.SetBeginTS(cts)
				w.old.SetEndTS(cts)
			case 'd':
				w.old.SetEndTS(cts)
			}
		}
		m.clock.Store(cts)
		m.unlockCommits()
	}

	t.mu.Lock()
	t.status = StatusCommitted
	t.mu.Unlock()
	m.finish(t, true)
	if logged {
		// Acknowledge only once the record is durable. The commit is
		// already visible to other transactions — that is safe, because any
		// dependent commit's record lands later in the same sequential log:
		// an fsync covering it covers ours too.
		return log.Sync(lsn)
	}
	return nil
}

// finish removes a finished t from the active set and counts how it ended.
func (m *Manager) finish(t *Txn, committed bool) {
	m.mu.Lock()
	delete(m.active, t.ID)
	if committed {
		m.commits++
	} else {
		m.aborts++
	}
	m.mu.Unlock()
}

// redoOps converts the write set into WAL redo operations: the full new row
// image pinned to its physical slot, making replay an idempotent
// install/clear.
func (t *Txn) redoOps() []wal.Op {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := make([]wal.Op, len(t.writes))
	for i, w := range t.writes {
		op := wal.Op{Table: w.heap.TableID, ID: w.id}
		switch w.kind {
		case 'i':
			op.Kind = wal.OpInsert
			op.Row = w.created.Data
		case 'u':
			op.Kind = wal.OpUpdate
			op.Row = w.created.Data
		case 'd':
			op.Kind = wal.OpDelete
		}
		ops[i] = op
	}
	return ops
}

// Abort rolls back t. Aborting a finished transaction does nothing.
func (m *Manager) Abort(t *Txn) {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return
	}
	t.status = StatusAborted
	writes := t.writes
	t.writes = nil
	t.mu.Unlock()

	// Undo in reverse order, re-taking the claim stripe covering each
	// record so the undo (head swap + XMax clear) cannot interleave with a
	// concurrent claimer inspecting the same row. Consecutive records on
	// the same stripe are undone under a single acquisition; as with
	// claims, only one stripe is held at a time.
	for i := len(writes) - 1; i >= 0; {
		si := stripeIndex(writes[i].heap.TableID, writes[i].id.Page)
		m.withStripe(si, func() {
			for i >= 0 && stripeIndex(writes[i].heap.TableID, writes[i].id.Page) == si {
				w := writes[i]
				switch w.kind {
				case 'i':
					// Mark the inserted version dead-before-birth so no
					// snapshot sees it and vacuum can reclaim the slot. The
					// end stamp goes first: a reader that sees the begin
					// stamp also sees the version ended.
					w.created.SetXMax(t.ID)
					w.created.SetEndTS(0)
					w.created.SetBeginTS(1)
				case 'u':
					// Restore old head, clear claim.
					w.heap.SetHead(w.id, w.old)
					w.old.SetXMax(0)
				case 'd':
					w.old.SetXMax(0)
				}
				i--
			}
		})
	}

	m.finish(t, false)
}

// ReadPage applies t's snapshot to one heap page's chain heads — the slice
// storage.Heap.PageHeads yields: heads[slot] is the chain head at (pageID,
// slot), nil entries (vacuumed chains) are skipped. Each visible row is
// appended to dst and, when ids is non-nil, its RowID to *ids (aligned), so
// DML can locate the versions it must claim without a second heap pass.
// Per-row semantics are ReadHead's; the common single-version
// committed-and-live case is decided inline, so a page costs one call.
func (m *Manager) ReadPage(pageID uint32, heads []*storage.Version, t *Txn, dst []rel.Row, ids *[]storage.RowID) []rel.Row {
	start := t.StartTS
	for slot, head := range heads {
		if head == nil {
			continue
		}
		row := head.Data
		// Fast path: creator committed within our snapshot, no deleter.
		if bts := head.BeginTS(); head.XMin == t.ID || bts == 0 || bts > start || head.XMax() != 0 {
			v := m.visibleVersion(head, t)
			if v == nil {
				continue
			}
			row = v.Data
		}
		dst = append(dst, row)
		if ids != nil {
			*ids = append(*ids, storage.RowID{Page: pageID, Slot: uint32(slot)})
		}
	}
	return dst
}

// ReadHead returns the row of the chain under head that is visible to t, or
// ok=false. Callers hold the head already — a scan from PageHeads, an index
// fetch from Heads — so a read costs no heap lookup.
func (m *Manager) ReadHead(head *storage.Version, t *Txn) (rel.Row, bool) {
	if head == nil {
		return nil, false
	}
	v := m.visibleVersion(head, t)
	if v == nil {
		return nil, false
	}
	return v.Data, true
}
