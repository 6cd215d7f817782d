//go:build !amd64

package nn

// avxBlocks covers nothing off amd64: mulAcc's Go tiles compute every
// element.
func avxBlocks(dst, a, b *Matrix) (rows, cols int) { return 0, 0 }
