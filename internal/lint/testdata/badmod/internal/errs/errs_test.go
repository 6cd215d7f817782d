// In-package test file: errcmp covers _test.go files too, and the driver
// loads them with the package they test.
package errs

import (
	"fmt"
	"testing"
)

// IsTorn exports an unexported helper to the external test package, the way
// an export_test.go file does.
var IsTorn = isClean

func TestWrapBreaksIdentity(t *testing.T) {
	err := fmt.Errorf("read page: %w", ErrTorn)
	if err == ErrTorn { // want errcmp:"use errors.Is"
		t.Fatal("identity survived wrapping")
	}
}
