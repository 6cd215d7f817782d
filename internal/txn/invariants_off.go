//go:build !invariants

package txn

// In normal builds the stripe-discipline hooks compile to nothing; under
// -tags=invariants they are the runtime assertions in invariants_on.go.

func stripeEnter() {}

func stripeExit() {}
