package x

// helper exists only in the test variant of x.
func helper() T { return T{N: 1} }

var _ = helper
