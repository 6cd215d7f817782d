// Package x is the package under test: it has in-package test files, so
// go test builds a test variant of it.
package x

// T is the type y hands back to x's external tests.
type T struct{ N int }
