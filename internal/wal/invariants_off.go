//go:build !invariants

package wal

// In normal builds the gate-protocol hooks compile to nothing; under
// -tags=invariants they are the runtime assertions in invariants_on.go.

func gateEnter() {}

func gateExit() {}

func assertGated() {}
