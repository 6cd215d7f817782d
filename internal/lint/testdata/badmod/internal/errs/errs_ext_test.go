// External test package: typechecked on its own, importing the package
// together with its in-package test files.
package errs_test

import (
	"io"
	"testing"

	"neurdb/internal/errs"
)

func TestExternalCompare(t *testing.T) {
	var err error = io.ErrUnexpectedEOF
	if err != errs.ErrTorn { // want errcmp:"use errors.Is"
		t.Log("not torn")
	}
	if errs.IsTorn(err) { // the exported test helper matches through wrapping — clean
		t.Fatal("unexpected EOF matched ErrTorn")
	}
}
