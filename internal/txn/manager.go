// Package txn implements the SQL engine's transaction manager: MVCC
// snapshot isolation with first-updater-wins write conflicts, plus a
// serializable mode based on rw-antidependency tracking in the spirit of
// PostgreSQL's Serializable Snapshot Isolation (Ports & Grittner, VLDB'12).
// This is the engine the paper's "PostgreSQL" baseline maps onto; the
// high-throughput learned-CC testbed lives in internal/cc.
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

// ErrSerializationFailure is returned when SSI detects a dangerous structure
// (the transaction is a pivot with both in- and out-rw-antidependencies).
var ErrSerializationFailure = errors.New("txn: serialization failure (SSI)")

// ErrTxnFinished is returned when operating on a committed/aborted txn.
var ErrTxnFinished = errors.New("txn: transaction already finished")

// ErrReadOnly is returned by writing commits after the write-ahead log has
// poisoned (a failed fsync whose dirty pages the kernel may have dropped).
// The engine fail-stops its write path: reads keep serving, every write is
// rejected with an error wrapping this sentinel, and a restart — which
// replays the durable log prefix — is the only way back to writability.
var ErrReadOnly = errors.New("txn: database is read-only (WAL poisoned; restart to recover)")

// IsolationLevel selects the concurrency-control behaviour.
type IsolationLevel uint8

// Supported isolation levels.
const (
	Snapshot     IsolationLevel = iota // SI: first-updater-wins only
	Serializable                       // SI + SSI rw-antidependency tracking
)

type rowKey struct {
	table int
	id    storage.RowID
}

type writeRec struct {
	heap    *storage.Heap
	id      storage.RowID
	created *storage.Version // new version we prepended (nil for delete)
	old     *storage.Version // previous head (nil for insert)
	kind    byte             // 'i', 'u', 'd'
}

// Txn is a transaction handle.
type Txn struct {
	ID       uint64
	StartTS  uint64
	Level    IsolationLevel
	ReadOnly bool

	mu       sync.Mutex
	status   Status
	commitTS uint64
	writes   []writeRec
	reads    []rowKey          // registered SIREAD entries (serializable only)
	inFrom   map[*Txn]struct{} // transactions with rw-antidependency into us
	outTo    map[*Txn]struct{} // transactions we have rw-antidependency out to
	outToOld bool              // out-conflict to an already-committed writer
}

// noteIn records an incoming rw-antidependency from r (r read, we wrote).
func (t *Txn) noteIn(r *Txn) {
	t.mu.Lock()
	if t.inFrom == nil {
		t.inFrom = make(map[*Txn]struct{})
	}
	t.inFrom[r] = struct{}{}
	t.mu.Unlock()
}

// noteOut records an outgoing rw-antidependency to w (we read, w wrote).
func (t *Txn) noteOut(w *Txn) {
	t.mu.Lock()
	if t.outTo == nil {
		t.outTo = make(map[*Txn]struct{})
	}
	t.outTo[w] = struct{}{}
	t.mu.Unlock()
}

// isPivot reports whether t currently has both a live incoming and a live
// outgoing rw-antidependency — the dangerous structure SSI aborts on.
// Edges to aborted transactions do not count.
func (t *Txn) isPivot() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	in := false
	for c := range t.inFrom {
		if c.Status() != StatusAborted {
			in = true
			break
		}
	}
	out := t.outToOld
	if !out {
		for c := range t.outTo {
			if c.Status() != StatusAborted {
				out = true
				break
			}
		}
	}
	return in && out
}

// Status returns the transaction status.
func (t *Txn) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.status
}

// CommitTS returns the commit timestamp (0 if not committed).
func (t *Txn) CommitTS() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.commitTS
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
	mu       sync.RWMutex
	nextID   uint64
	active   map[uint64]*Txn
	statusOf map[uint64]Status // finished txns (bounded via pruning)
	commitOf map[uint64]uint64

	// clock is the commit-timestamp clock: Begin snapshots it, Commit
	// advances it with one atomic add, so commit timestamps stay totally
	// ordered without any lock. The stamp-before-publish discipline in
	// Commit (version timestamps first, statusOf after) is what lets
	// readers interpret a missing stamp as "not committed".
	clock atomic.Uint64

	// stripes partitions write claims (and their abort undo) by the row's
	// (table, page): the per-row test-and-set of XMax and the head swap
	// must be atomic against other claimers of the same row, but claims on
	// different pages are independent. A claim takes exactly one stripe at
	// a time — batch claims lock per page run, never holding two stripes —
	// so no lock ordering is needed and deadlock is impossible. Commit
	// takes no stripes at all: it only stamps versions the transaction
	// already claimed, and concurrent claimers observe the claim via XMax.
	stripes [WriteStripeCount]writeStripe

	// stripeClaims/stripeWaits count stripe acquisitions and the subset
	// that had to block (TryLock failed) — the txn.stripe_wait monitor
	// series measures write-path contention from these.
	stripeClaims atomic.Uint64
	stripeWaits  atomic.Uint64

	readersMu sync.Mutex
	readers   map[rowKey]map[*Txn]struct{} // SIREAD registry

	// log, when set, receives every writing transaction's redo record at
	// commit (see Commit for the ordering protocol). Installed once at
	// boot, before any transaction runs.
	log CommitLog

	commits, aborts, ssiAborts, wwAborts uint64
}

// CommitLog is the durability hook the WAL implements. The manager drives
// it with a strict ordering protocol: GateRLock is held from the commit-
// timestamp draw through in-memory publication (so a checkpoint cut under
// the exclusive gate never observes a half-published commit), AppendCommit
// happens before any stamp becomes visible (so a transaction can never be
// observed — and built upon — before its redo record is in the log), and
// Sync blocks the acknowledgment until the record is durable under the
// configured policy.
type CommitLog interface {
	GateRLock()
	GateRUnlock()
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

// ClockNow returns the current commit clock (the checkpoint cut reads it
// under the exclusive commit gate).
func (m *Manager) ClockNow() uint64 { return m.clock.Load() }

// RestoreClock fast-forwards the commit clock after WAL replay so new
// commits stamp timestamps beyond every recovered version. Boot-time only.
func (m *Manager) RestoreClock(ts uint64) { m.clock.Store(ts) }

// NewManager creates a transaction manager.
func NewManager() *Manager {
	return &Manager{
		nextID:   0,
		active:   make(map[uint64]*Txn),
		statusOf: make(map[uint64]Status),
		commitOf: make(map[uint64]uint64),
		readers:  make(map[rowKey]map[*Txn]struct{}),
	}
}

// stripeIndex hashes a (table, page) pair onto a claim stripe.
func stripeIndex(table int, page uint32) uint32 {
	h := uint32(table)*0x9e3779b1 ^ page*0x85ebca6b
	return (h ^ h>>16) % WriteStripeCount
}

// withStripe runs fn holding claim stripe si, counting contention for the
// txn.stripe_wait series. It is the only code that touches a stripe's lock,
// so every claim is taken here — one stripe per call, released before it
// returns. Calling withStripe from inside fn (a second stripe) or while the
// WAL commit gate is held panics under -tags=invariants.
func (m *Manager) withStripe(si uint32, fn func()) {
	stripeEnter()
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
func (m *Manager) StripeStats() (claims, waits uint64) {
	return m.stripeClaims.Load(), m.stripeWaits.Load()
}

// Begin starts a transaction at the given isolation level.
func (m *Manager) Begin(level IsolationLevel, readOnly bool) *Txn {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.nextID++
	t := &Txn{
		ID:       m.nextID,
		StartTS:  m.clock.Load(),
		Level:    level,
		ReadOnly: readOnly,
		status:   StatusActive,
	}
	m.active[t.ID] = t
	return t
}

// Stats reports cumulative commit/abort counters; ssi and ww break down the
// abort causes attributable to serialization failures and write conflicts.
func (m *Manager) Stats() (commits, aborts, ssiAborts, wwAborts uint64) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.commits, m.aborts, m.ssiAborts, m.wwAborts
}

// OldestActiveTS returns the snapshot horizon for vacuum: the minimum
// StartTS among active transactions, or the current clock if none.
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

// committedAt reports whether xid committed, and its commit timestamp.
func (m *Manager) committedAt(xid uint64) (uint64, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if s, ok := m.statusOf[xid]; ok && s == StatusCommitted {
		return m.commitOf[xid], true
	}
	return 0, false
}

// visibleVersion walks the chain from head and returns the first version
// visible to t under its snapshot, along with whether a newer committed
// version was skipped (used for SSI out-conflict detection).
func (m *Manager) visibleVersion(head *storage.Version, t *Txn) (*storage.Version, *storage.Version) {
	var skippedNewer *storage.Version
	for v := head; v != nil; v = v.Next() {
		if m.versionVisible(v, t) {
			return v, skippedNewer
		}
		// Track a committed newer version that our snapshot skips.
		if bts := v.BeginTS(); bts != 0 && bts > t.StartTS {
			skippedNewer = v
		}
	}
	return nil, skippedNewer
}

func (m *Manager) versionVisible(v *storage.Version, t *Txn) bool {
	// Created by self: visible unless also deleted by self.
	if v.XMin == t.ID {
		return v.XMax() != t.ID
	}
	begin := v.BeginTS()
	if begin == 0 {
		// Creator not stamped: check status (it may have committed between
		// our chain read and now; the stamp is applied before the status is
		// published, so a missing stamp means not committed).
		ts, ok := m.committedAt(v.XMin)
		if !ok {
			return false
		}
		begin = ts
	}
	if begin > t.StartTS {
		return false
	}
	// Deleted?
	xmax := v.XMax()
	if xmax == 0 {
		return true
	}
	if xmax == t.ID {
		return false // we deleted it ourselves
	}
	end := v.EndTS()
	if end == storage.InfinityTS {
		ts, ok := m.committedAt(xmax)
		if !ok {
			return true // deleter still active/aborted: still visible to us
		}
		end = ts
	}
	return end > t.StartTS
}

// registerRead adds an SIREAD entry for the row.
func (m *Manager) registerRead(table int, id storage.RowID, t *Txn) {
	rk := rowKey{table, id}
	m.readersMu.Lock()
	set, ok := m.readers[rk]
	if !ok {
		set = make(map[*Txn]struct{})
		m.readers[rk] = set
	}
	if _, dup := set[t]; !dup {
		set[t] = struct{}{}
		t.mu.Lock()
		t.reads = append(t.reads, rk)
		t.mu.Unlock()
	}
	m.readersMu.Unlock()
}

// flagConflict records a rw-antidependency from reader to the writer xid.
func (m *Manager) flagConflict(reader *Txn, writerID uint64) {
	m.mu.RLock()
	w := m.active[writerID]
	m.mu.RUnlock()
	if w != nil {
		reader.noteOut(w)
		w.noteIn(reader)
		return
	}
	// Writer already finished; if it committed, the out-edge is permanent.
	if _, committed := m.committedAt(writerID); committed {
		reader.mu.Lock()
		reader.outToOld = true
		reader.mu.Unlock()
	}
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
	vis, _ := m.visibleVersion(head, t)
	if vis == nil {
		return writeRec{}, ErrWriteConflict // row gone or not yet visible
	}
	// First-updater-wins: if someone else already claimed this version.
	if xmax := vis.XMax(); xmax != 0 && xmax != t.ID {
		if _, committed := m.committedAt(xmax); committed {
			return writeRec{}, ErrWriteConflict // deleter committed after our snapshot
		}
		return writeRec{}, ErrWriteConflict // concurrent active writer
	}
	// If the head is newer than our visible version, a concurrent writer
	// already installed a successor: snapshot write conflict.
	if vis != head && head.XMin != t.ID {
		return writeRec{}, ErrWriteConflict
	}
	// SSI: readers of this row have rw-antidependency into us.
	if t.Level == Serializable {
		m.flagReaders(h.TableID, id, t)
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

// flagReaders marks rw-antidependencies reader -> t for all registered
// readers of the row.
func (m *Manager) flagReaders(table int, id storage.RowID, t *Txn) {
	rk := rowKey{table, id}
	m.readersMu.Lock()
	set := m.readers[rk]
	var rs []*Txn
	for r := range set {
		if r != t {
			rs = append(rs, r)
		}
	}
	m.readersMu.Unlock()
	for _, r := range rs {
		r.noteOut(t)
		t.noteIn(r)
	}
}

// Commit finalizes t. Under Serializable it aborts pivots (both in- and
// out-conflicts), returning ErrSerializationFailure.
//
// With a CommitLog installed, writing transactions follow the WAL protocol:
// the redo record is appended *before* the stamps are published (if T2 ever
// reads T1's writes, T1's record precedes T2's in the log, so a log prefix
// is always causally closed), the whole draw-append-stamp-publish window
// runs under the gate's read lock (so the checkpointer's exclusive cut sees
// only fully published commits), and the call returns — acknowledging the
// commit — only after Sync reports the record durable under the configured
// policy. Read-only transactions skip all of it.
func (m *Manager) Commit(t *Txn) error {
	t.mu.Lock()
	if t.status != StatusActive {
		t.mu.Unlock()
		return ErrTxnFinished
	}
	nwrites := len(t.writes)
	t.mu.Unlock()
	if t.Level == Serializable && t.isPivot() {
		m.abortInternal(t, true)
		return ErrSerializationFailure
	}

	log := m.log
	logged := log != nil && nwrites > 0
	if logged {
		// Fail-stop: a poisoned log means the last fsync's pages may already
		// be gone from the kernel, so no new commit can ever be made durable.
		// Reject before any in-memory state changes; the first commit that
		// *caused* the poison got the raw fsync error from Sync below, and
		// every commit after it degrades to read-only here.
		if perr := log.Err(); perr != nil {
			m.abortInternal(t, false)
			return fmt.Errorf("%w (cause: %v)", ErrReadOnly, perr)
		}
		log.GateRLock()
	}

	// Draw the commit timestamp from the atomic clock: total commit order
	// without any global write lock. Stamping happens *before* the status
	// is published below — a reader that sees StatusCommitted also sees the
	// stamps (the m.mu release/acquire pair orders them), while a reader
	// racing ahead of publication resolves the writer as in-progress via
	// statusOf and ignores the version. No claim stripes are taken here:
	// every version being stamped was claimed earlier (XMax set, head
	// swapped), so concurrent claimers already observe the conflict through
	// XMax regardless of commit timing.
	cts := m.clock.Add(1)

	var lsn uint64
	if logged {
		var err error
		lsn, err = log.AppendCommit(cts, t.redoOps())
		if err != nil {
			// Nothing reached the log (a failed buffered write leaves the
			// on-disk prefix consistent), so rolling the in-memory claims
			// back keeps both sides agreeing the transaction never happened.
			log.GateRUnlock()
			m.abortInternal(t, false)
			return fmt.Errorf("txn: wal append: %w", err)
		}
	}

	t.mu.Lock()
	for _, w := range t.writes {
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
	t.status = StatusCommitted
	t.commitTS = cts
	t.mu.Unlock()

	m.mu.Lock()
	m.statusOf[t.ID] = StatusCommitted
	m.commitOf[t.ID] = cts
	delete(m.active, t.ID)
	m.commits++
	m.mu.Unlock()

	if logged {
		log.GateRUnlock()
	}
	m.unregisterReads(t)
	if logged {
		// Acknowledge only once the record is durable. The commit is
		// already visible to other transactions — that is safe, because any
		// dependent commit's record lands later in the same sequential log:
		// an fsync covering it covers ours too.
		return log.Sync(lsn)
	}
	return nil
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

// Abort rolls back t.
func (m *Manager) Abort(t *Txn) {
	m.abortInternal(t, false)
}

func (m *Manager) abortInternal(t *Txn, ssi bool) {
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
					// snapshot sees it and vacuum can reclaim the slot.
					w.created.SetXMax(t.ID)
					w.created.SetBeginTS(1)
					w.created.SetEndTS(0)
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

	m.mu.Lock()
	m.statusOf[t.ID] = StatusAborted
	delete(m.active, t.ID)
	m.aborts++
	if ssi {
		m.ssiAborts++
	} else {
		m.wwAborts++
	}
	m.mu.Unlock()

	m.unregisterReads(t)
}

// unregisterReads drops the txn's SIREAD entries.
//
// This is a deliberate simplification of PostgreSQL SSI, which retains
// SIREAD locks of committed transactions until all overlapping transactions
// finish; dropping them at finish trades some anomaly coverage for
// simplicity. Classic two-transaction write skew is still detected (both
// participants are active when the conflicting writes happen).
func (m *Manager) unregisterReads(t *Txn) {
	t.mu.Lock()
	reads := t.reads
	t.reads = nil
	t.mu.Unlock()
	if len(reads) == 0 {
		return
	}
	m.readersMu.Lock()
	for _, rk := range reads {
		if set, ok := m.readers[rk]; ok {
			delete(set, t)
			if len(set) == 0 {
				delete(m.readers, rk)
			}
		}
	}
	m.readersMu.Unlock()
}

// ReadPage applies t's snapshot to one heap page's chain heads — the slice
// storage.Heap.PageHeads yields: heads[slot] is the chain head at (pageID,
// slot), nil entries (vacuumed chains) are skipped. Each visible row is
// appended to dst and, when ids is non-nil, its RowID to *ids (aligned), so
// DML can locate the versions it must claim without a second heap pass.
// Per-row semantics are ReadHead's: a serializable read-write transaction
// goes through it row by row (SIREAD registration, conflict flagging); every
// other reader pays one manager call per page, with the common
// single-version committed-and-live case decided inline.
func (m *Manager) ReadPage(table int, pageID uint32, heads []*storage.Version, t *Txn, dst []rel.Row, ids *[]storage.RowID) []rel.Row {
	if t.Level == Serializable && !t.ReadOnly {
		for slot, head := range heads {
			id := storage.RowID{Page: pageID, Slot: uint32(slot)}
			if row, ok := m.ReadHead(table, id, head, t); ok {
				dst = append(dst, row)
				if ids != nil {
					*ids = append(*ids, id)
				}
			}
		}
		return dst
	}
	start := t.StartTS
	for slot, head := range heads {
		if head == nil {
			continue
		}
		row := head.Data
		// Fast path: creator committed within our snapshot, no deleter.
		if bts := head.BeginTS(); head.XMin == t.ID || bts == 0 || bts > start || head.XMax() != 0 {
			v, _ := m.visibleVersion(head, t)
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
// ok=false. id names the chain: under Serializable it is what the SIREAD
// entry is registered on. Callers hold the head already — a scan from
// PageHeads, an index fetch from Heads — so a read costs no heap lookup.
func (m *Manager) ReadHead(table int, id storage.RowID, head *storage.Version, t *Txn) (rel.Row, bool) {
	if head == nil {
		return nil, false
	}
	v, skipped := m.visibleVersion(head, t)
	if t.Level == Serializable && !t.ReadOnly {
		m.registerRead(table, id, t)
		if skipped != nil {
			// We read under a snapshot that excludes a committed newer
			// version: rw-antidependency t -> writer(skipped).
			m.flagConflict(t, skipped.XMin)
		}
		// Also if the visible version carries an uncommitted deleter, the
		// write already claimed it; reading still creates t -> deleter.
		if v != nil {
			if xmax := v.XMax(); xmax != 0 && xmax != t.ID {
				m.flagConflict(t, xmax)
			}
		}
	}
	if v == nil {
		return nil, false
	}
	return v.Data, true
}
