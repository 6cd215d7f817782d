// Package errs seeds errcmp violations for the neurdb-lint fixture module:
// identity comparisons, switches, and concrete assertions on error values
// that break under fmt.Errorf("%w") wrapping, next to the errors.Is/As
// idioms that survive it.
package errs

import (
	"errors"
	"fmt"
	"io"
)

// ErrTorn is the fixture sentinel.
var ErrTorn = errors.New("torn page")

// DecodeError is a concrete error type callers inspect for the offset.
type DecodeError struct{ Off int64 }

func (e *DecodeError) Error() string { return fmt.Sprintf("decode error at %d", e.Off) }

// eqSentinel compares by identity; one wrap and it never matches again.
func eqSentinel(err error) bool {
	return err == ErrTorn // want errcmp:"use errors.Is"
}

// neqStdlib does the same against a stdlib sentinel.
func neqStdlib(err error) bool {
	return err != io.EOF // want errcmp:"use errors.Is"
}

// isClean matches through wrapping — clean.
func isClean(err error) bool { return errors.Is(err, ErrTorn) }

// nilCheck is not a sentinel comparison — clean.
func nilCheck(err error) bool { return err != nil }

// switchSentinel dispatches on error identity.
func switchSentinel(err error) int {
	switch err {
	case nil:
		return 0
	case ErrTorn: // want errcmp:"switch over an error value"
		return 1
	}
	return 2
}

// assertConcrete unwraps by concrete type assertion.
func assertConcrete(err error) int64 {
	if de, ok := err.(*DecodeError); ok { // want errcmp:"use errors.As"
		return de.Off
	}
	return -1
}

// asClean matches through wrapping — clean.
func asClean(err error) int64 {
	var de *DecodeError
	if errors.As(err, &de) {
		return de.Off
	}
	return -1
}

// typeSwitchConcrete matches a concrete error type by identity; the nil
// case is the legitimate nil check and stays silent.
func typeSwitchConcrete(err error) int64 {
	switch e := err.(type) {
	case nil:
		return 0
	case *DecodeError: // want errcmp:"use errors.As"
		return e.Off
	}
	return -1
}
