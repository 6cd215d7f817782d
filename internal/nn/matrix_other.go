//go:build !amd64

package nn

// tile2x8 adds rows a0 and a1 times columns 0-7 of b (row stride n) into
// d0[0:8] and d1[0:8] as two tile2x4 calls: every element keeps its one
// accumulator and its order, so the sums are those of the amd64 kernel.
func tile2x8(d0, d1, a0, a1, b []float64, n int) {
	tile2x4(d0[:4], d1[:4], a0, a1, b, n)
	tile2x4(d0[4:8], d1[4:8], a0, a1, b[4:], n)
}
