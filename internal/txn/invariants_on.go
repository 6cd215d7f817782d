//go:build invariants

package txn

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Built with -tags=invariants, the engine carries cheap runtime assertions
// for the stripe discipline that Manager.withStripe holds by shape: a
// goroutine holds at most one write-claim stripe at a time, and takes none
// while it holds the manager's commit lock (a Quiesce caller would otherwise
// wait on a claimer that waits on the lock). A nested withStripe, or a claim
// or abort run under the commit lock, panics the moment it happens, naming
// the invariant, instead of deadlocking later.

// stripeHeld maps goroutine id -> held-stripe count (0 entries are removed).
var stripeHeld sync.Map

// lockHolder records the id of the goroutine holding the commit lock (0:
// none). The lock is exclusive, so one word suffices.
type lockHolder struct{ g atomic.Uint64 }

func (h *lockHolder) set() { h.g.Store(goid()) }

func (h *lockHolder) clear() { h.g.Store(0) }

// goid parses the current goroutine's id from the stack header
// ("goroutine 123 [running]:") without allocating. Slow, which is fine:
// this file only builds under the invariants tag.
func goid() uint64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id uint64
	for i := prefix; i < n && buf[i] >= '0' && buf[i] <= '9'; i++ {
		id = id*10 + uint64(buf[i]-'0')
	}
	return id
}

func stripeEnter(commit *lockHolder) {
	id := goid()
	if commit.g.Load() == id {
		panic("txn: invariant violated: write stripe taken while this goroutine holds the commit lock (lock order: stripe first, commit lock second)")
	}
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
