//go:build !invariants

package txn

// In normal builds the lock-discipline hooks compile to nothing; under
// -tags=invariants they are the runtime assertions in invariants_on.go.

type lockHolder struct{}

func (*lockHolder) set() {}

func (*lockHolder) clear() {}

func stripeEnter(*lockHolder) {}

func stripeExit() {}
