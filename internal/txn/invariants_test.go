//go:build invariants

package txn

import (
	"fmt"
	"strings"
	"testing"

	"neurdb/internal/rel"
)

// mustPanic runs fn and fails the test unless fn panics with a message
// containing want.
func mustPanic(t *testing.T, what, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s did not panic under -tags=invariants", what)
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Fatalf("%s panicked with %q, want %q", what, msg, want)
		}
	}()
	fn()
}

// TestStripeNestingPanics: withStripe called from inside withStripe takes a
// second stripe while holding one, which the stripe discipline forbids.
func TestStripeNestingPanics(t *testing.T) {
	m := NewManager()
	mustPanic(t, "nested withStripe", "second write stripe", func() {
		m.withStripe(0, func() { m.withStripe(1, func() {}) })
	})
}

// TestStripeReleaseUnheldPanics covers the other direction: releasing a
// stripe this goroutine does not hold.
func TestStripeReleaseUnheldPanics(t *testing.T) {
	mustPanic(t, "unheld stripe release", "holds none", stripeExit)
}

// TestStripeUnderCommitLockPanics: a claim (UpdateBatch) or an abort's
// undo taken while this goroutine holds the commit lock (here through
// Quiesce) inverts the stripe-then-commit-lock order.
func TestStripeUnderCommitLockPanics(t *testing.T) {
	m := NewManager()
	h := newHeap()
	ids := seedBatchHeap(t, m, h, 2)
	row := []rel.Row{{rel.Int(7)}}

	underLock := func(fn func()) func() {
		return func() {
			_ = m.Quiesce(func(uint64) error {
				fn()
				return nil
			})
		}
	}

	tx := m.Begin(Snapshot, false)
	mustPanic(t, "UpdateBatch under the commit lock", "commit lock",
		underLock(func() { _ = m.UpdateBatch(h, ids[:1], row, tx) }))

	tx = m.Begin(Snapshot, false)
	if err := m.UpdateBatch(h, ids[1:], row, tx); err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Abort under the commit lock", "commit lock", underLock(func() { m.Abort(tx) }))
}
