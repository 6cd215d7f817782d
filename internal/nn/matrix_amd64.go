package nn

// tile2x8 adds rows a0 and a1 times columns 0-7 of b (row stride n) into
// d0[0:8] and d1[0:8], in packed SSE2 (matrix_amd64.s). The caller proves
// every bound: len(d0), len(d1) >= 8, len(a1) >= len(a0) and
// len(b) >= (len(a0)-1)*n+8.
//
//go:noescape
func tile2x8(d0, d1, a0, a1, b []float64, n int)
