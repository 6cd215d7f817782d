// Package txn seeds commitgate violations (and their clean counterparts)
// for the neurdb-lint fixture module.
package txn

import "sync"

// Status mirrors the real transaction status enum.
type Status uint8

// Statuses.
const (
	StatusActive Status = iota
	StatusCommitted
	StatusAborted
)

// Txn is a miniature transaction.
type Txn struct {
	ID     uint64
	status Status
	begin  uint64
	end    uint64
}

// SetBeginTS stamps the begin timestamp.
func (t *Txn) SetBeginTS(ts uint64) { t.begin = ts }

// SetEndTS stamps the end timestamp.
func (t *Txn) SetEndTS(ts uint64) { t.end = ts }

// CommitLog mirrors the real WAL commit surface.
type CommitLog interface {
	AppendCommit(cts uint64, ops []byte) (uint64, error)
	Sync(lsn uint64) error
}

// Manager is a miniature transaction manager.
type Manager struct {
	log      CommitLog
	commitMu sync.Mutex
}

func (m *Manager) lockCommits()   { m.commitMu.Lock() }
func (m *Manager) unlockCommits() { m.commitMu.Unlock() }

// commitClean is the blessed protocol: append under the commit lock, then
// stamps, then publication, then durable sync — clean.
func (m *Manager) commitClean(t *Txn, cts uint64) error {
	m.lockCommits()
	lsn, err := m.log.AppendCommit(cts, nil)
	if err != nil {
		m.unlockCommits()
		return err
	}
	t.SetEndTS(cts)
	m.unlockCommits()
	t.status = StatusCommitted
	return m.log.Sync(lsn)
}

// commitStampEarly stamps the transaction before its redo record exists.
func (m *Manager) commitStampEarly(t *Txn, cts uint64) error {
	t.SetEndTS(cts) // want commitgate:"before the WAL append"
	m.lockCommits()
	lsn, err := m.log.AppendCommit(cts, nil)
	m.unlockCommits()
	if err != nil {
		return err
	}
	return m.log.Sync(lsn)
}

// commitNoLock appends outside the commit-lock window.
func (m *Manager) commitNoLock(t *Txn, cts uint64) error {
	lsn, err := m.log.AppendCommit(cts, nil) // want commitgate:"outside a commit-lock window"
	if err != nil {
		return err
	}
	t.status = StatusCommitted
	return m.log.Sync(lsn)
}

// commitNoSync acknowledges without making the record durable.
func (m *Manager) commitNoSync(t *Txn, cts uint64) error {
	m.lockCommits()
	_, err := m.log.AppendCommit(cts, nil) // want commitgate:"never calls Sync"
	m.unlockCommits()
	t.status = StatusCommitted
	return err
}

// publishNoAppend makes a commit observable that was never logged.
func (m *Manager) publishNoAppend(t *Txn) {
	t.status = StatusCommitted // want commitgate:"without any WAL AppendCommit"
}
