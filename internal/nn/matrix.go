// Package nn is a from-scratch, stdlib-only neural-network runtime: the
// kernels PREDICT's models (ARM-Net-lite) train and infer on. It provides
// dense matrices with destination-passing products, differentiable modules
// with hand-written backward passes, losses, the Adam optimizer with layer
// freezing (the substrate for the paper's incremental model update), and
// weight serialization for the layered model store. Figure code builds on
// it: the learned query optimizer's attention blocks live with that
// optimizer in internal/bench/learnedopt.
//
// The matmul's 4×8 tile, tile4x8, is the package's one piece of assembly: AVX
// on amd64 (matrix_amd64.s), chosen once at init where CPUID and XGETBV say
// the CPU and the OS support it. Every other host — an amd64 without AVX and
// every other GOARCH — runs the Go tiles tile2x4 and tile2x1 over the same
// elements. Both round each product and add it in order, so they compute the
// same bits.
package nn

import (
	"fmt"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix. Rows are samples (or sequence
// positions), columns are features.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Randn fills a new matrix with N(0, std²) entries from r.
func Randn(rows, cols int, std float64, r *rand.Rand) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64() * std
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j). Nothing on a request path calls it since
// PREDICT encodes its rows into a code matrix of its own; it is kept because
// the benchmark module fills its batches with it.
//
//neurdb:reserved direction 2
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// The kernels below write into a destination the caller owns, so a training
// step can run on preallocated scratch (Workspace). dst must have the
// result's shape and must not alias an operand.
//
// MatMulBiasInto and MatMulATAcc keep the textbook summation order: each
// output element has one accumulator — +0, or dst's value for the
// accumulating form — that adds a[i][k]·b[k][j] with k ascending, each
// product rounded before it is added (no FMA). Both run on mulAcc, whose
// tiles keep their sums in registers for the whole k loop, so each element of
// a and b that is loaded feeds several products rather than one: on amd64 with
// AVX each VMULPD and VADDPD computes four of them, lane by lane exactly as the
// scalar MULSD and ADDSD. A product with a zero factor is added like any
// other: for finite operands it leaves the sum as it was, because a sum that
// starts from +0 — or from a dst that holds no −0 — is never −0.

// MatMulBiasInto sets dst = a×b, plus bias (length b.Cols, may be nil) added
// to every row — a Linear layer's forward. The bias is added to each element
// after its products are summed.
func MatMulBiasInto(dst, a, b *Matrix, bias []float64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMul", dst, a.Rows, b.Cols)
	if bias != nil && len(bias) != b.Cols {
		panic("nn: MatMulBiasInto bias length mismatch")
	}
	clear(dst.Data)
	mulAcc(dst, a, b)
	if bias == nil {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		orow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j, bv := range bias {
			orow[j] += bv
		}
	}
}

// MatMulBTInto sets dst = a×bᵀ: each element is dot's four-way sum, except
// for an inner dimension of 1, where it is the one product plus +0 — the value
// dot returns for it — written by an outer-product loop.
func MatMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMulBT", dst, a.Rows, b.Rows)
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		if n == 1 {
			x, bcol := arow[0], b.Data[:len(orow)]
			for j, y := range bcol {
				orow[j] = float64(x*y) + 0
			}
			continue
		}
		for j := range orow {
			orow[j] = dot(arow, b.Data[j*n:(j+1)*n])
		}
	}
}

// MatMulATAcc adds aᵀ×b into dst: a layer's weight gradient dW += Xᵀ·dy
// without the intermediate product matrix. aᵀ is packed into a scratch matrix
// from ws (nil allocates it), so the tile reads both operands row by row.
func MatMulATAcc(dst, a, b *Matrix, ws *Workspace) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MatMulAT shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMulAT", dst, a.Cols, b.Cols)
	at := ws.Get(a.Cols, a.Rows)
	for r := 0; r < a.Rows; r++ {
		for i, v := range a.Data[r*a.Cols : (r+1)*a.Cols] {
			at.Data[i*a.Rows+r] = v
		}
	}
	mulAcc(dst, at, b)
}

// mulAcc adds a×b into dst, element by element in the order stated above.
// avxBlocks first covers what whole 4×8 AVX tiles can (nothing where useAVX is
// off); the Go tiles then take the rest, rows in pairs — an odd last row pairs
// with itself, computing and writing the same values twice — and columns in
// fours, then one at a time. Each element is computed by exactly one tile.
func mulAcc(dst, a, b *Matrix) {
	k, n := a.Cols, b.Cols
	if k == 0 {
		return // nothing to add, and b has no rows to slice
	}
	rows4, cols8 := avxBlocks(dst, a, b)
	for i := 0; i < a.Rows; i += 2 {
		i1 := min(i+1, a.Rows-1)
		a0, a1 := a.Data[i*k:(i+1)*k], a.Data[i1*k:(i1+1)*k]
		d0, d1 := dst.Data[i*n:(i+1)*n], dst.Data[i1*n:(i1+1)*n]
		j := 0
		if i < rows4 { // rows4 is a multiple of four, so i1 < rows4 too
			j = cols8
		}
		for ; j+4 <= n; j += 4 {
			tile2x4(d0[j:j+4], d1[j:j+4], a0, a1, b.Data[j:], n)
		}
		for ; j < n; j++ {
			tile2x1(d0[j:], d1[j:], a0, a1, b.Data[j:], n)
		}
	}
}

// tile2x4 adds rows a0 and a1 times columns 0-3 of b (row stride n) into
// d0[0:4] and d1[0:4], its eight sums in registers throughout. It is the
// remainder tile beside tile4x8 and the whole matmul without AVX. Each
// float64(x * y) conversion rounds its product before the add: Go may fuse a
// bare s += x * y into one FMA, as it does on arm64, which rounds once and so
// would give other bits than the AVX tile.
func tile2x4(d0, d1, a0, a1, b []float64, n int) {
	d0, d1, a1 = d0[:4], d1[:4], a1[:len(a0)]
	s00, s01, s02, s03 := d0[0], d0[1], d0[2], d0[3]
	s10, s11, s12, s13 := d1[0], d1[1], d1[2], d1[3]
	off := 0
	for kk, x0 := range a0 {
		x1 := a1[kk]
		bk := b[off : off+4 : off+4]
		off += n
		b0 := bk[0]
		s00 += float64(x0 * b0)
		s10 += float64(x1 * b0)
		b1 := bk[1]
		s01 += float64(x0 * b1)
		s11 += float64(x1 * b1)
		b2 := bk[2]
		s02 += float64(x0 * b2)
		s12 += float64(x1 * b2)
		b3 := bk[3]
		s03 += float64(x0 * b3)
		s13 += float64(x1 * b3)
	}
	d0[0], d0[1], d0[2], d0[3] = s00, s01, s02, s03
	d1[0], d1[1], d1[2], d1[3] = s10, s11, s12, s13
}

// tile2x1 is tile2x4 for one column: d0[0] and d1[0].
func tile2x1(d0, d1, a0, a1, b []float64, n int) {
	a1 = a1[:len(a0)]
	s0, s1 := d0[0], d1[0]
	off := 0
	for kk, x0 := range a0 {
		bv := b[off]
		off += n
		s0 += float64(x0 * bv)
		s1 += float64(a1[kk] * bv)
	}
	d0[0], d1[0] = s0, s1
}

// dot returns x·y (same length) summed in four interleaved partial sums, so
// consecutive multiply-adds do not wait on each other.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		xs, ys := x[k:k+4:k+4], y[k:k+4:k+4]
		s0 += float64(xs[0] * ys[0])
		s1 += float64(xs[1] * ys[1])
		s2 += float64(xs[2] * ys[2])
		s3 += float64(xs[3] * ys[3])
	}
	for ; k < len(x); k++ {
		s0 += float64(x[k] * y[k])
	}
	return (s0 + s1) + (s2 + s3)
}

func checkDst(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
