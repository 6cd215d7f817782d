package x_test

import (
	"variantmod/x"
	"variantmod/y"
)

// go test rebuilds y against x's test variant, so y.New returns the same
// x.T this package sees.
var _ x.T = y.New()
