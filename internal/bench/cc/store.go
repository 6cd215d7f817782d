// Package cc is a high-performance concurrency-control testbed: fixed
// record arrays, per-record latch words, versioned optimistic reads, and an
// execution engine whose per-operation behaviour is chosen by a pluggable
// policy. The paper evaluates NeurDB(CC) inside the Polyjuice codebase
// rather than inside PostgreSQL for the same reason this package exists:
// micro-benchmarking CC algorithms needs a lean substrate. Policies include
// an SSI-flavoured snapshot baseline ("PostgreSQL" in Fig. 7a), classic 2PL
// and OCC references, the Polyjuice-style evolved policy table, and the
// paper's learned contention-aware decision model with two-phase adaptation.
// The YCSB and TPC-C-style generators that drive it live here too. Fig. 7 is
// its one user; no request path links it.
package cc

import (
	"math"
	"runtime"
	"sync/atomic"
)

// Record is one row of the testbed store. The state word encodes the latch:
// -1 = exclusively locked, 0 = free, n>0 = n shared holders.
type Record struct {
	state    atomic.Int32
	waiters  atomic.Int32
	version  atomic.Uint64
	value    atomic.Int64
	conflict atomic.Uint64 // EWMA of conflict events, stored as float64 bits
}

// Store is a fixed array of records.
type Store struct {
	recs []Record
}

// NewStore allocates n records with zero values.
func NewStore(n int) *Store {
	return &Store{recs: make([]Record, n)}
}

// Size returns the number of records.
func (s *Store) Size() int { return len(s.recs) }

// Record returns record i.
func (s *Store) Record(i int) *Record { return &s.recs[i] }

// Value returns the committed value of record i (racy read for reporting).
func (s *Store) Value(i int) int64 { return s.recs[i].value.Load() }

// Reset zeroes all records (between benchmark phases).
func (s *Store) Reset() {
	for i := range s.recs {
		r := &s.recs[i]
		r.state.Store(0)
		r.waiters.Store(0)
		r.version.Store(0)
		r.value.Store(0)
		r.conflict.Store(0)
	}
}

// TryExclusive attempts to latch the record exclusively without waiting.
func (r *Record) TryExclusive() bool {
	return r.state.CompareAndSwap(0, -1)
}

// ExclusiveWait spins (bounded) for the exclusive latch; false on timeout.
// The bound doubles as timeout-based deadlock breaking.
func (r *Record) ExclusiveWait(maxSpins int) bool {
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	for i := 0; i < maxSpins; i++ {
		if r.TryExclusive() {
			return true
		}
		if i%32 == 31 {
			runtime.Gosched()
		}
	}
	return false
}

// TryShared attempts to take a shared latch without waiting.
func (r *Record) TryShared() bool {
	for {
		s := r.state.Load()
		if s < 0 {
			return false
		}
		if r.state.CompareAndSwap(s, s+1) {
			return true
		}
	}
}

// SharedWait spins (bounded) for a shared latch.
func (r *Record) SharedWait(maxSpins int) bool {
	r.waiters.Add(1)
	defer r.waiters.Add(-1)
	for i := 0; i < maxSpins; i++ {
		if r.TryShared() {
			return true
		}
		if i%32 == 31 {
			runtime.Gosched()
		}
	}
	return false
}

// ReleaseExclusive drops the exclusive latch.
func (r *Record) ReleaseExclusive() { r.state.Store(0) }

// ReleaseShared drops one shared latch.
func (r *Record) ReleaseShared() { r.state.Add(-1) }

// ReadOptimistic returns (value, version, ok); ok is false when the record
// was exclusively latched (dirty) during the read.
func (r *Record) ReadOptimistic() (int64, uint64, bool) {
	v1 := r.version.Load()
	if r.state.Load() < 0 {
		return 0, 0, false
	}
	val := r.value.Load()
	v2 := r.version.Load()
	if v1 != v2 {
		return 0, 0, false
	}
	return val, v1, true
}

// ReadLocked returns the value; caller must hold a latch.
func (r *Record) ReadLocked() int64 { return r.value.Load() }

// Install applies a delta and bumps the version; caller must hold the
// exclusive latch.
func (r *Record) Install(delta int64) {
	r.value.Add(delta)
	r.version.Add(1)
}

// Version returns the committed version counter.
func (r *Record) Version() uint64 { return r.version.Load() }

// NoteConflict bumps the record's conflict EWMA toward 1.
func (r *Record) NoteConflict() {
	for {
		old := r.conflict.Load()
		f := math.Float64frombits(old)
		nf := f*0.9 + 0.1
		if r.conflict.CompareAndSwap(old, math.Float64bits(nf)) {
			return
		}
	}
}

// DecayConflict relaxes the EWMA toward 0 (called on uncontended access).
func (r *Record) DecayConflict() {
	old := r.conflict.Load()
	f := math.Float64frombits(old)
	if f < 1e-4 {
		return
	}
	r.conflict.CompareAndSwap(old, math.Float64bits(f*0.995))
}

// Contention returns the conflict EWMA in [0, 1].
func (r *Record) Contention() float64 {
	return math.Float64frombits(r.conflict.Load())
}

// Waiters returns the current waiter count.
func (r *Record) Waiters() int32 { return r.waiters.Load() }

// LockState returns a coarse signal: 1 exclusive, 0.5 shared, 0 free.
func (r *Record) LockState() float64 {
	s := r.state.Load()
	switch {
	case s < 0:
		return 1
	case s > 0:
		return 0.5
	default:
		return 0
	}
}

// UpgradeWait upgrades a shared latch held by the caller to exclusive,
// waiting (bounded) for other readers to drain. The caller must hold
// exactly one shared reference.
func (r *Record) UpgradeWait(maxSpins int) bool {
	for i := 0; i < maxSpins; i++ {
		if r.state.CompareAndSwap(1, -1) {
			return true
		}
		if i%32 == 31 {
			runtime.Gosched()
		}
	}
	return false
}
