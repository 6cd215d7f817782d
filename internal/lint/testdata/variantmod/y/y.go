// Package y depends on x.
package y

import "variantmod/x"

// New returns an x.T.
func New() x.T { return x.T{N: 2} }
