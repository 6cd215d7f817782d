//go:build invariants

package client_test

// stripeAssertAllocs is what the -tags=invariants stripe assertions add to
// a round trip that claims a row: each stripe entry and exit records the
// goroutine in a map.
const stripeAssertAllocs = 8
