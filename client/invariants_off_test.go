//go:build !invariants

package client_test

// stripeAssertAllocs is zero without -tags=invariants (see
// invariants_on_test.go).
const stripeAssertAllocs = 0
