//go:build invariants

package txn

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"

	"neurdb/internal/wal"
)

// Built with -tags=invariants, the engine carries cheap runtime assertions
// for the stripe discipline that Manager.withStripe holds by shape: a
// goroutine holds at most one write-claim stripe at a time, and takes none
// while it holds the WAL commit gate (the checkpointer's exclusive gate
// would otherwise wait on a claimer that waits on the gate). A nested
// withStripe, or a claim or abort run under GateRLock/GateLock, panics the
// moment it happens, naming the invariant, instead of deadlocking later.

// stripeHeld maps goroutine id -> held-stripe count (0 entries are removed).
var stripeHeld sync.Map

// goid parses the current goroutine's id from the stack header
// ("goroutine 123 [running]:"). Slow, which is fine: this file only builds
// under the invariants tag.
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

func stripeEnter() {
	if wal.GateHeld() {
		panic("txn: invariant violated: write stripe taken while this goroutine holds the WAL commit gate (lock order: stripe first, gate second)")
	}
	id := goid()
	if held, ok := stripeHeld.Load(id); ok && held.(int) > 0 {
		panic("txn: invariant violated: goroutine acquired a second write stripe while holding one (stripe discipline: at most one stripe per txn at a time)")
	}
	stripeHeld.Store(id, 1)
}

func stripeExit() {
	id := goid()
	held, ok := stripeHeld.Load(id)
	if !ok || held.(int) <= 0 {
		panic("txn: invariant violated: write stripe released by a goroutine that holds none")
	}
	stripeHeld.Delete(id)
}
