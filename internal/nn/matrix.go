// Package nn is a from-scratch, stdlib-only neural-network runtime used by
// every learned component in the system: the in-database analytics models
// (ARM-Net-lite), the learned concurrency-control decision model, and the
// learned query optimizer's encoder/analyzer. It provides dense matrices,
// differentiable modules with hand-written backward passes, losses,
// optimizers with layer freezing (the substrate for the paper's incremental
// model update), and weight serialization for the layered model store.
package nn

import (
	"fmt"
	"math"
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

// FromSlice wraps data (len rows*cols) without copying.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("nn: FromSlice %dx%d needs %d values, got %d", rows, cols, rows*cols, len(data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("nn: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
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

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MatMul returns a×b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulBiasInto(out, a, b, nil)
	return out
}

// MatMulBT returns a×bᵀ.
func MatMulBT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	MatMulBTInto(out, a, b)
	return out
}

// MatMulAT returns aᵀ×b.
func MatMulAT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Cols, b.Cols)
	MatMulATAcc(out, a, b)
	return out
}

// The kernels below write into a destination the caller owns, so a training
// step can run on preallocated scratch (Workspace). dst must have the
// result's shape and must not alias an operand. The allocating forms above
// are wrappers over them: there is one implementation of each product.

// MatMulBiasInto sets dst = a×b, plus bias (length b.Cols, may be nil) added
// to every row — a Linear layer's forward in one pass over dst. The bias is
// added after the products are summed, as AddRowVec(MatMul(a, b), bias) does.
func MatMulBiasInto(dst, a, b *Matrix, bias []float64) {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("nn: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMul", dst, a.Rows, b.Cols)
	if bias != nil && len(bias) != b.Cols {
		panic("nn: MatMulBiasInto bias length mismatch")
	}
	n := b.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		orow := dst.Data[i*n : (i+1)*n]
		clear(orow)
		for k, av := range arow {
			if av != 0 {
				axpy(orow, av, b.Data[k*n:(k+1)*n])
			}
		}
		for j, bv := range bias {
			orow[j] += bv
		}
	}
}

// MatMulBTInto sets dst = a×bᵀ.
func MatMulBTInto(dst, a, b *Matrix) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: MatMulBT shape mismatch %dx%d · (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMulBT", dst, a.Rows, b.Rows)
	n := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*n : (i+1)*n]
		orow := dst.Data[i*b.Rows : (i+1)*b.Rows]
		for j := range orow {
			orow[j] = dot(arow, b.Data[j*n:(j+1)*n])
		}
	}
}

// MatMulATAcc adds aᵀ×b into dst: a layer's weight gradient dW += Xᵀ·dy
// without the intermediate product matrix.
func MatMulATAcc(dst, a, b *Matrix) {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("nn: MatMulAT shape mismatch (%dx%d)ᵀ · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	checkDst("MatMulAT", dst, a.Cols, b.Cols)
	n := b.Cols
	for k := 0; k < a.Rows; k++ {
		arow := a.Data[k*a.Cols : (k+1)*a.Cols]
		brow := b.Data[k*n : (k+1)*n]
		for i, av := range arow {
			if av != 0 {
				axpy(dst.Data[i*n:(i+1)*n], av, brow)
			}
		}
	}
}

// axpy adds a·x into y (same length). Each y[j] receives exactly one product
// per call, so unrolling does not change any sum's order.
func axpy(y []float64, a float64, x []float64) {
	y = y[:len(x)]
	j := 0
	for ; j+4 <= len(x); j += 4 {
		xs, ys := x[j:j+4:j+4], y[j:j+4:j+4]
		ys[0] += a * xs[0]
		ys[1] += a * xs[1]
		ys[2] += a * xs[2]
		ys[3] += a * xs[3]
	}
	for ; j < len(x); j++ {
		y[j] += a * x[j]
	}
}

// dot returns x·y (same length) summed in four interleaved partial sums, so
// consecutive multiply-adds do not wait on each other.
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s0, s1, s2, s3 float64
	k := 0
	for ; k+4 <= len(x); k += 4 {
		xs, ys := x[k:k+4:k+4], y[k:k+4:k+4]
		s0 += xs[0] * ys[0]
		s1 += xs[1] * ys[1]
		s2 += xs[2] * ys[2]
		s3 += xs[3] * ys[3]
	}
	for ; k < len(x); k++ {
		s0 += x[k] * y[k]
	}
	return (s0 + s1) + (s2 + s3)
}

func checkDst(op string, dst *Matrix, rows, cols int) {
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("nn: %s destination is %dx%d, want %dx%d", op, dst.Rows, dst.Cols, rows, cols))
	}
}

// Add returns a+b elementwise.
func Add(a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// AddInPlace adds b into a.
func AddInPlace(a, b *Matrix) {
	checkSameShape("AddInPlace", a, b)
	for i := range a.Data {
		a.Data[i] += b.Data[i]
	}
}

// Sub returns a-b elementwise.
func Sub(a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] - b.Data[i]
	}
	return out
}

// Hadamard returns a⊙b elementwise.
func Hadamard(a, b *Matrix) *Matrix {
	checkSameShape("Hadamard", a, b)
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(a *Matrix, s float64) *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// AddRowVec adds vector v (length Cols) to every row of a, returning a new
// matrix; the bias-add of a Linear layer.
func AddRowVec(a *Matrix, v []float64) *Matrix {
	if len(v) != a.Cols {
		panic("nn: AddRowVec length mismatch")
	}
	out := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		orow := out.Row(i)
		for j := range row {
			orow[j] = row[j] + v[j]
		}
	}
	return out
}

// SoftmaxRows applies softmax independently to every row.
func SoftmaxRows(a *Matrix) *Matrix {
	out := NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		if sum == 0 {
			sum = 1
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// SoftmaxBackwardRows computes the gradient of softmax applied row-wise:
// dx = y ⊙ (dy - rowsum(dy ⊙ y)).
func SoftmaxBackwardRows(y, dy *Matrix) *Matrix {
	checkSameShape("SoftmaxBackwardRows", y, dy)
	out := NewMatrix(y.Rows, y.Cols)
	for i := 0; i < y.Rows; i++ {
		yr, dyr, or := y.Row(i), dy.Row(i), out.Row(i)
		var dot float64
		for j := range yr {
			dot += yr[j] * dyr[j]
		}
		for j := range yr {
			or[j] = yr[j] * (dyr[j] - dot)
		}
	}
	return out
}

// MeanRows returns the column-wise mean as a 1×Cols matrix.
func MeanRows(a *Matrix) *Matrix {
	out := NewMatrix(1, a.Cols)
	if a.Rows == 0 {
		return out
	}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// Concat stacks b to the right of a (same Rows).
func Concat(a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic("nn: Concat row mismatch")
	}
	out := NewMatrix(a.Rows, a.Cols+b.Cols)
	for i := 0; i < a.Rows; i++ {
		copy(out.Row(i)[:a.Cols], a.Row(i))
		copy(out.Row(i)[a.Cols:], b.Row(i))
	}
	return out
}

// VStack stacks b below a (same Cols).
func VStack(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic("nn: VStack col mismatch")
	}
	out := NewMatrix(a.Rows+b.Rows, a.Cols)
	copy(out.Data[:len(a.Data)], a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("nn: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
