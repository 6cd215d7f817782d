// Package txn seeds commitgate violations (and their clean counterparts)
// for the neurdb-lint fixture module.
package txn

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
	GateRLock()
	GateRUnlock()
	AppendCommit(cts uint64, ops []byte) (uint64, error)
	Sync(lsn uint64) error
}

// Manager is a miniature transaction manager.
type Manager struct {
	log      CommitLog
	statusOf map[uint64]Status
}

// commitClean is the blessed protocol: gated append, then stamps, then
// publication, then durable sync — clean.
func (m *Manager) commitClean(t *Txn, cts uint64) error {
	m.log.GateRLock()
	lsn, err := m.log.AppendCommit(cts, nil)
	if err != nil {
		m.log.GateRUnlock()
		return err
	}
	t.SetEndTS(cts)
	t.status = StatusCommitted
	m.statusOf[t.ID] = StatusCommitted
	m.log.GateRUnlock()
	return m.log.Sync(lsn)
}

// commitStampEarly stamps the transaction before its redo record exists.
func (m *Manager) commitStampEarly(t *Txn, cts uint64) error {
	t.SetEndTS(cts) // want commitgate:"before the WAL append"
	m.log.GateRLock()
	lsn, err := m.log.AppendCommit(cts, nil)
	m.log.GateRUnlock()
	if err != nil {
		return err
	}
	return m.log.Sync(lsn)
}

// commitNoGate appends outside the commit-gate window.
func (m *Manager) commitNoGate(t *Txn, cts uint64) error {
	lsn, err := m.log.AppendCommit(cts, nil) // want commitgate:"outside a commit-gate RLock window"
	if err != nil {
		return err
	}
	t.status = StatusCommitted
	return m.log.Sync(lsn)
}

// commitNoSync acknowledges without making the record durable.
func (m *Manager) commitNoSync(t *Txn, cts uint64) error {
	m.log.GateRLock()
	_, err := m.log.AppendCommit(cts, nil) // want commitgate:"never calls Sync"
	m.log.GateRUnlock()
	t.status = StatusCommitted
	return err
}

// publishNoAppend makes a commit observable that was never logged.
func (m *Manager) publishNoAppend(t *Txn) {
	t.status = StatusCommitted // want commitgate:"without any WAL AppendCommit"
}
