// Atomicmix fixtures: sync/atomic package functions on plain fields, the
// Store(Load()) read-modify-write on typed atomics, and the typed
// disciplines that must stay silent.
package storage

import "sync/atomic"

// Meter counts page fills in a plain field through package functions, so
// nothing stops the plain read in Snapshot.
type Meter struct {
	pages uint64
}

// Inc is the hot-path increment.
func (m *Meter) Inc() {
	atomic.AddUint64(&m.pages, 1) // want atomicmix:"sync/atomic.AddUint64 on a plain value"
}

// Snapshot reads the counter without the atomic.
func (m *Meter) Snapshot() uint64 { return m.pages }

// Gauge keeps its counter typed: every access is atomic by construction —
// clean.
type Gauge struct {
	N atomic.Uint64
}

// Load reads the gauge on the monitoring path — clean.
func (g *Gauge) Load() uint64 { return g.N.Load() }

// seqHolder carries a typed atomic sequence counter.
type seqHolder struct {
	seq atomic.Int64
}

// bumpRacy loses updates between the Load and the Store.
func (s *seqHolder) bumpRacy() {
	s.seq.Store(s.seq.Load() + 1) // want atomicmix:"not an atomic read-modify-write"
}

// bumpClean is the correct form — clean.
func (s *seqHolder) bumpClean() { s.seq.Add(1) }

// rebase stores a value derived from a different source — clean.
func (s *seqHolder) rebase(base int64) { s.seq.Store(base) }
