package nn

import (
	"math"
	"math/rand"
	"testing"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	naiveMulAcc(out, a, b, false)
	return out
}

// naiveMulAcc adds a×b into dst the textbook way: per element, dst's value
// plus a[i][k]·b[k][j] for k ascending. With skip it leaves out the products
// whose a factor is zero, as the kernels did before they were tiled.
func naiveMulAcc(dst, a, b *Matrix, skip bool) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			s := dst.At(i, j)
			for k := 0; k < a.Cols; k++ {
				if !skip || a.At(i, k) != 0 {
					s += a.At(i, k) * b.At(k, j)
				}
			}
			dst.Set(i, j, s)
		}
	}
}

// naiveBT is a×bᵀ with each element summed in dot's order: four partial sums
// over k mod 4, the tail past the last full group of four into the first,
// combined as (s0+s1)+(s2+s3).
func naiveBT(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s [4]float64
			for k := 0; k < a.Cols; k++ {
				lane := k % 4
				if k >= a.Cols/4*4 {
					lane = 0
				}
				s[lane] += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, (s[0]+s[1])+(s[2]+s[3]))
		}
	}
	return out
}

func transpose(a *Matrix) *Matrix {
	out := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Set(j, i, a.At(i, j))
		}
	}
	return out
}

// TestMatMulAgainstNaive is the kernels' differential test: over random
// shapes that leave every tile remainder (odd rows, columns not a multiple of
// four, an inner dimension of 1) and values that mix 0, −0, subnormals and
// magnitudes from 1e-5 to 1e5, each product equals its naive loop bit for bit
// — MatMulATAcc also when it accumulates onto a non-zero dst. It also states
// what dropping the zero-factor skip changed: for finite operands and a dst
// that holds no −0, nothing; a −0 in dst plus a zero product becomes +0.
func TestMatMulAgainstNaive(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	value := func() float64 {
		switch r.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.Copysign(0, -1)
		case 2:
			return float64(r.Intn(1<<20)-1<<19) * math.SmallestNonzeroFloat64
		}
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(11)-5))
	}
	fill := func(rows, cols int, negZero bool) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			if m.Data[i] = value(); !negZero && m.Data[i] == 0 {
				m.Data[i] = 0
			}
		}
		return m
	}
	same := func(what string, got, want *Matrix) {
		t.Helper()
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("%s %dx%d: element %d is %v, want %v", what, got.Rows, got.Cols, i, got.Data[i], want.Data[i])
			}
		}
	}
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 31, 32, 33}
	var ws Workspace
	for trial := 0; trial < 400; trial++ {
		m, k, n := dims[r.Intn(len(dims))], dims[r.Intn(len(dims))], dims[r.Intn(len(dims))]
		a, b, bias := fill(m, k, true), fill(k, n, true), fill(1, n, true).Data

		got := fill(m, n, true)
		MatMulBiasInto(got, a, b, bias)
		want, skipped := NewMatrix(m, n), NewMatrix(m, n)
		naiveMulAcc(want, a, b, false)
		naiveMulAcc(skipped, a, b, true)
		for i := range want.Data {
			want.Data[i] += bias[i%n]
			skipped.Data[i] += bias[i%n]
		}
		same("MatMulBiasInto", got, want)
		same("MatMulBiasInto vs zero skip", got, skipped)

		bt := fill(n, k, true)
		got = fill(m, n, true)
		MatMulBTInto(got, a, bt)
		same("MatMulBTInto", got, naiveBT(a, bt))

		c, acc := fill(m, n, true), fill(k, n, false)
		want, skipped = acc.Clone(), acc.Clone()
		naiveMulAcc(want, transpose(a), c, false)
		naiveMulAcc(skipped, transpose(a), c, true)
		got = acc.Clone()
		MatMulATAcc(got, a, c, nil)
		same("MatMulATAcc", got, want)
		same("MatMulATAcc vs zero skip", got, skipped)
		ws.Reset() // the workspace's scratch holds the last trial's values
		got = acc.Clone()
		MatMulATAcc(got, a, c, &ws)
		same("MatMulATAcc(ws)", got, want)
	}
	negZero, ones := NewMatrix(1, 5), NewMatrix(1, 5) // a 4-column tile and a remainder
	for i := range negZero.Data {
		negZero.Data[i], ones.Data[i] = math.Copysign(0, -1), 1
	}
	MatMulATAcc(negZero, FromSlice(1, 1, []float64{0}), ones, nil)
	for i, v := range negZero.Data {
		if math.Signbit(v) {
			t.Fatalf("column %d: −0 + 0·1 must be +0: the kernels add zero products", i)
		}
	}
}

func TestElementwiseOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Randn(3, 4, 1, r)
	b := Randn(3, 4, 1, r)
	sum := Add(a, b)
	sc := Scale(a, 2.5)
	for i := range a.Data {
		if sum.Data[i] != a.Data[i]+b.Data[i] || sc.Data[i] != 2.5*a.Data[i] {
			t.Fatal("elementwise op wrong")
		}
	}
	cp := a.Clone()
	AddInPlace(cp, b)
	for i := range cp.Data {
		if cp.Data[i] != sum.Data[i] {
			t.Fatal("AddInPlace wrong")
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	a := Randn(5, 7, 3, r)
	s := SoftmaxRows(a)
	for i := 0; i < s.Rows; i++ {
		var total float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatal("softmax out of range")
			}
			total += v
		}
		if !almostEq(total, 1, 1e-9) {
			t.Fatalf("row %d sums to %v", i, total)
		}
	}
}

// TestConcatVStackMean keeps its name from when Concat and VStack lived here;
// of the three, MeanRows is what remains.
func TestConcatVStackMean(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	m := MeanRows(a)
	if m.At(0, 0) != 2 || m.At(0, 1) != 3 {
		t.Fatal("MeanRows wrong")
	}
	if MeanRows(NewMatrix(0, 2)).At(0, 0) != 0 {
		t.Fatal("MeanRows of empty should be zero")
	}
}

// TestAddRowVecAndAccessors: adding a row vector to every row is now the bias
// step of MatMulBiasInto, here through an identity product.
func TestAddRowVecAndAccessors(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	out := NewMatrix(2, 2)
	MatMulBiasInto(out, a, FromRows([][]float64{{1, 0}, {0, 1}}), []float64{10, 20})
	if out.At(0, 0) != 11 || out.At(1, 1) != 24 {
		t.Fatal("row-vector add wrong")
	}
	a.Set(0, 0, 9)
	if a.At(0, 0) != 9 {
		t.Fatal("Set/At wrong")
	}
	row := a.Row(1)
	row[0] = 42
	if a.At(1, 0) != 42 {
		t.Fatal("Row should be a view")
	}
	a.Zero()
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("Zero wrong")
		}
	}
}

func TestShapePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 5)
	expectPanic("MatMul", func() { MatMul(a, b) })
	expectPanic("Add", func() { Add(a, b) })
	expectPanic("FromSlice", func() { FromSlice(2, 2, []float64{1}) })
	expectPanic("FromRows", func() { FromRows([][]float64{{1, 2}, {3}}) })
}

// TestIntoKernelsMatchWrappers: the destination-passing kernels produce,
// into a destination full of garbage, exactly what the allocating wrappers
// return, and the accumulating form from zero what its wrapper returns.
// Shapes include 0-row and 1-column operands.
func TestIntoKernelsMatchWrappers(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	dirty := func(rows, cols int) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = 1e9 * r.NormFloat64()
		}
		return m
	}
	same := func(what string, got, want *Matrix) {
		t.Helper()
		if got.Rows != want.Rows || got.Cols != want.Cols {
			t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
		}
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s: element %d is %v, want %v", what, i, got.Data[i], want.Data[i])
			}
		}
	}
	dims := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 33}
	for trial := 0; trial < 200; trial++ {
		m, k, n := dims[r.Intn(len(dims))], dims[r.Intn(len(dims))], dims[r.Intn(len(dims))]
		a, b := Randn(m, k, 1, r), Randn(k, n, 1, r)
		bias := Randn(1, n, 1, r).Data

		dst := dirty(m, n)
		MatMulBiasInto(dst, a, b, nil)
		same("MatMulBiasInto(nil)", dst, MatMul(a, b))
		same("MatMul vs naive", dst, naiveMatMul(a, b))
		dst = dirty(m, n)
		MatMulBiasInto(dst, a, b, bias)
		withBias := MatMul(a, b)
		for i := range withBias.Data {
			withBias.Data[i] += bias[i%n]
		}
		same("MatMulBiasInto", dst, withBias)

		bt := Randn(n, k, 1, r)
		dst = dirty(m, n)
		MatMulBTInto(dst, a, bt)
		same("MatMulBTInto", dst, MatMulBT(a, bt))

		c := Randn(m, n, 1, r)
		zero := NewMatrix(k, n)
		MatMulATAcc(zero, a, c, nil)
		same("MatMulATAcc from zero", zero, MatMulAT(a, c))
		same("MatMulAT vs naive", zero, naiveMatMul(transpose(a), c))
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	expectPanic("wrong destination", func() { MatMulBiasInto(NewMatrix(2, 2), NewMatrix(2, 3), NewMatrix(3, 3), nil) })
	expectPanic("wrong bias", func() { MatMulBiasInto(NewMatrix(2, 3), NewMatrix(2, 3), NewMatrix(3, 3), []float64{1}) })
}

// TestWorkspaceReusesBuffers: after Reset a workspace serves the same
// requests from the same memory, and a nil workspace allocates.
func TestWorkspaceReusesBuffers(t *testing.T) {
	var ws Workspace
	a, b := ws.Get(4, 8), ws.Get(2, 2)
	ws.Reset()
	if a2 := ws.Get(2, 8); a2 != a || a2.Rows != 2 || len(a2.Data) != 16 {
		t.Fatalf("first buffer not reused: %p vs %p, %dx%d", a2, a, a2.Rows, a2.Cols)
	}
	if b2 := ws.Get(3, 3); b2 != b || len(b2.Data) != 9 {
		t.Fatal("second buffer not reused (grown in place)")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		ws.Reset()
		ws.Get(4, 8)
		ws.Get(3, 3)
	}); allocs != 0 {
		t.Fatalf("steady-state workspace allocates %v times per pass", allocs)
	}
	var none *Workspace
	if m := none.Get(2, 3); m.Rows != 2 || m.Cols != 3 || m.Data[5] != 0 {
		t.Fatal("nil workspace must allocate a zeroed matrix")
	}
}

// The kernel benchmarks run the head step's three shapes: the hidden layer's
// forward (128×32 · 32×32), its weight gradient ((128×32)ᵀ · 128×32) and the
// output layer's input gradient (128×1 · (32×1)ᵀ).
func BenchmarkMatMulBiasInto(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	x, w, bias, dst := Randn(128, 32, 1, r), Randn(32, 32, 1, r), Randn(1, 32, 1, r).Data, NewMatrix(128, 32)
	for b.Loop() {
		MatMulBiasInto(dst, x, w, bias)
	}
}

func BenchmarkMatMulATAcc(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x, dy, dst := Randn(128, 32, 1, r), Randn(128, 32, 1, r), NewMatrix(32, 32)
	var ws Workspace
	for b.Loop() {
		ws.Reset()
		MatMulATAcc(dst, x, dy, &ws)
	}
}

func BenchmarkMatMulBTInto(b *testing.B) {
	r := rand.New(rand.NewSource(3))
	dy, w, dst := Randn(128, 1, 1, r), Randn(32, 1, 1, r), NewMatrix(128, 32)
	for b.Loop() {
		MatMulBTInto(dst, dy, w)
	}
}
