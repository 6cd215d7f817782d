package lint_test

import (
	"testing"

	"neurdb/internal/lint"
	"neurdb/internal/lint/linttest"
)

// The fixture module seeds at least one true positive per analyzer alongside
// clean counterparts (the blessed idioms) that must stay diagnostic-free;
// linttest checks both directions against the `// want` annotations.

const badmod = "testdata/badmod"

func TestCommitGateTxn(t *testing.T) {
	linttest.Run(t, badmod, lint.CommitGate, "neurdb/internal/txn")
}

func TestIOErr(t *testing.T) {
	linttest.Run(t, badmod, lint.IOErr, "neurdb/internal/wal")
}

func TestDetOrder(t *testing.T) {
	linttest.Run(t, badmod, lint.DetOrder, "neurdb/internal/wire")
}

func TestBatchAlias(t *testing.T) {
	linttest.Run(t, badmod, lint.BatchAlias, "neurdb/internal/executor")
}

func TestAtomicMix(t *testing.T) {
	linttest.Run(t, badmod, lint.AtomicMix, "neurdb/internal/storage")
}

// TestAtomicMixCrossPackage: the rule is module-wide — a sync/atomic call
// outside the package that declares the counter is flagged too.
func TestAtomicMixCrossPackage(t *testing.T) {
	linttest.Run(t, badmod, lint.AtomicMix, "neurdb/internal/executor")
}

// TestErrCmp covers the package and both of its test variants: the
// in-package _test.go file and the external errs_test package.
func TestErrCmp(t *testing.T) {
	linttest.Run(t, badmod, lint.ErrCmp, "neurdb/internal/errs")
}

func TestExhaustiveEnum(t *testing.T) {
	linttest.Run(t, badmod, lint.Exhaustive, "neurdb/internal/wire")
}

func TestExhaustiveInterface(t *testing.T) {
	linttest.Run(t, badmod, lint.Exhaustive, "neurdb/internal/rel")
}

// TestExhaustiveCrossPackage: the //lint:closedenum marker on wire.Op is read
// from the wire package's source when the executor's dispatch switch is
// checked.
func TestExhaustiveCrossPackage(t *testing.T) {
	linttest.Run(t, badmod, lint.Exhaustive, "neurdb/internal/executor")
}

// TestAnalyzerPinning proves an analyzer is inert outside its packages:
// commitgate (pinned to internal/txn) must not report in the WAL or the
// executor — running the whole suite over the whole tree stays safe.
func TestAnalyzerPinning(t *testing.T) {
	for _, path := range []string{"neurdb/internal/executor", "neurdb/internal/wal"} {
		if lint.CommitGate.AppliesTo(path) {
			t.Fatalf("commitgate should not apply to %s", path)
		}
	}
	if !lint.CommitGate.AppliesTo("neurdb/internal/txn") {
		t.Fatal("commitgate should apply to internal/txn")
	}
	if !lint.IOErr.AppliesTo("neurdb") {
		t.Fatal("ioerr should apply to the root package")
	}
	if lint.IOErr.AppliesTo("neurdbx") {
		t.Fatal("package matching must be path-segment exact")
	}
}

// TestReach runs the module-wide check over a fixture module with a server
// command: unreferenced and figure-only exports, a knob only a test sets and
// stale or numberless reservations are findings; an interface method, an
// interface-typed knob and a numbered reservation are not.
func TestReach(t *testing.T) {
	linttest.Run(t, "testdata/reachmod", lint.Reach, "neurdb/internal/srv")
}
