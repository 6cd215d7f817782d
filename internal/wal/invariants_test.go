//go:build invariants

package wal

import "testing"

// TestAppendOutsideGatePanics proves the -tags=invariants runtime assertion
// fires on an append with no gate window open.
func TestAppendOutsideGatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ungated assertGated did not panic under -tags=invariants")
		}
	}()
	assertGated()
}

// TestAppendInsideGatePasses is the positive direction: inside a window the
// assertion is silent.
func TestAppendInsideGatePasses(t *testing.T) {
	gateEnter()
	defer gateExit()
	assertGated()
}

// TestAppendUnderAnotherGoroutinesGatePanics: the gate must be held by the
// appending goroutine itself — goroutine A holding it does not cover an
// append on goroutine B.
func TestAppendUnderAnotherGoroutinesGatePanics(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	held, release := make(chan struct{}), make(chan struct{})
	go func() {
		l.GateRLock()
		close(held)
		<-release
		l.GateRUnlock()
	}()
	<-held
	defer close(release)
	defer func() {
		if recover() == nil {
			t.Fatal("append on a goroutine holding no gate did not panic while another goroutine held it")
		}
	}()
	_, _ = l.AppendCommit(1, testOps(1))
}
