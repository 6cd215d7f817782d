//go:build invariants

package wal

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
)

// Built with -tags=invariants, the log asserts the commit-gate protocol at
// runtime: AppendCommit must run inside a gate window held by the calling
// goroutine (read side for commits; the exclusive side also counts, covering
// DDL and recovery). neurdb-lint's commitgate analyzer checks the commit
// paths it can see; the per-goroutine holder count catches any appender that
// reaches the log another way, including one that relies on a gate some
// other goroutine happens to hold.

// gateHeld maps goroutine id -> gate windows it holds (read or exclusive);
// entries drop to absent at zero.
var gateHeld sync.Map

// goid parses the current goroutine's id from the stack header
// ("goroutine 123 [running]:"), as internal/txn's invariants build does.
// Slow, which is fine: this file only builds under the invariants tag.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	fields := bytes.Fields(buf[:n])
	if len(fields) < 2 {
		return 0
	}
	id, _ := strconv.ParseUint(string(fields[1]), 10, 64)
	return id
}

func heldBy(id uint64) int {
	if n, ok := gateHeld.Load(id); ok {
		return n.(int)
	}
	return 0
}

func gateEnter() {
	id := goid()
	gateHeld.Store(id, heldBy(id)+1)
}

func gateExit() {
	id := goid()
	switch n := heldBy(id); {
	case n <= 0:
		panic("wal: invariant violated: commit gate released by a goroutine that holds none")
	case n == 1:
		gateHeld.Delete(id)
	default:
		gateHeld.Store(id, n-1)
	}
}

func assertGated() {
	if !GateHeld() {
		panic("wal: invariant violated: AppendCommit outside a commit-gate window held by this goroutine (append must be covered by GateRLock so a checkpoint cut never sees a half-published commit)")
	}
}

// GateHeld reports whether the calling goroutine holds a commit gate of any
// log, in either mode. It exists only in invariants builds, for
// internal/txn's assertion that no claim stripe is taken under the gate.
func GateHeld() bool { return heldBy(goid()) > 0 }
