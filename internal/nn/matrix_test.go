package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func naiveMatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulAgainstNaive(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, k, n := 1+r.Intn(6), 1+r.Intn(6), 1+r.Intn(6)
		a := Randn(m, k, 1, r)
		b := Randn(k, n, 1, r)
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				return false
			}
		}
		// MatMulBT(a, b) == a × bᵀ
		bt := Randn(n, k, 1, r)
		btT := NewMatrix(k, n)
		for i := 0; i < n; i++ {
			for j := 0; j < k; j++ {
				btT.Set(j, i, bt.At(i, j))
			}
		}
		g2 := MatMulBT(a, bt)
		w2 := naiveMatMul(a, btT)
		for i := range g2.Data {
			if !almostEq(g2.Data[i], w2.Data[i], 1e-9) {
				return false
			}
		}
		// MatMulAT(a, c) == aᵀ × c
		c := Randn(m, n, 1, r)
		aT := NewMatrix(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				aT.Set(j, i, a.At(i, j))
			}
		}
		g3 := MatMulAT(a, c)
		w3 := naiveMatMul(aT, c)
		for i := range g3.Data {
			if !almostEq(g3.Data[i], w3.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestElementwiseOps(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := Randn(3, 4, 1, r)
	b := Randn(3, 4, 1, r)
	sum := Add(a, b)
	diff := Sub(a, b)
	had := Hadamard(a, b)
	sc := Scale(a, 2.5)
	for i := range a.Data {
		if sum.Data[i] != a.Data[i]+b.Data[i] ||
			diff.Data[i] != a.Data[i]-b.Data[i] ||
			had.Data[i] != a.Data[i]*b.Data[i] ||
			sc.Data[i] != 2.5*a.Data[i] {
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

func TestConcatVStackMean(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5}, {6}})
	c := Concat(a, b)
	if c.Cols != 3 || c.At(0, 2) != 5 || c.At(1, 2) != 6 {
		t.Fatal("Concat wrong")
	}
	d := FromRows([][]float64{{7, 8}})
	v := VStack(a, d)
	if v.Rows != 3 || v.At(2, 0) != 7 {
		t.Fatal("VStack wrong")
	}
	m := MeanRows(a)
	if m.At(0, 0) != 2 || m.At(0, 1) != 3 {
		t.Fatal("MeanRows wrong")
	}
	if MeanRows(NewMatrix(0, 2)).At(0, 0) != 0 {
		t.Fatal("MeanRows of empty should be zero")
	}
}

func TestAddRowVecAndAccessors(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	out := AddRowVec(a, []float64{10, 20})
	if out.At(0, 0) != 11 || out.At(1, 1) != 24 {
		t.Fatal("AddRowVec wrong")
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
	expectPanic("Concat", func() { Concat(a, NewMatrix(3, 1)) })
	expectPanic("VStack", func() { VStack(a, NewMatrix(1, 9)) })
	expectPanic("FromSlice", func() { FromSlice(2, 2, []float64{1}) })
	expectPanic("FromRows", func() { FromRows([][]float64{{1, 2}, {3}}) })
	expectPanic("AddRowVec", func() { AddRowVec(a, []float64{1}) })
}

// TestIntoKernelsMatchWrappers: the destination-passing kernels produce,
// into a destination full of garbage, exactly what the allocating wrappers
// return; the accumulating form adds exactly that to what dst held; and the
// two products whose summation order is the textbook one agree with the
// naive triple loop bit for bit. Shapes include 0-row and 1-column operands.
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
		if k > 0 && m > 0 {
			a.Data[r.Intn(len(a.Data))] = 0 // the kernels skip zero multipliers
		}
		bias := Randn(1, n, 1, r).Data

		dst := dirty(m, n)
		MatMulBiasInto(dst, a, b, nil)
		same("MatMulBiasInto(nil)", dst, MatMul(a, b))
		same("MatMul vs naive", dst, naiveMatMul(a, b))
		dst = dirty(m, n)
		MatMulBiasInto(dst, a, b, bias)
		same("MatMulBiasInto", dst, AddRowVec(MatMul(a, b), bias))

		bt := Randn(n, k, 1, r)
		dst = dirty(m, n)
		MatMulBTInto(dst, a, bt)
		same("MatMulBTInto", dst, MatMulBT(a, bt))

		c := Randn(m, n, 1, r)
		acc := dirty(k, n)
		want := Add(acc, MatMulAT(a, c))
		if m == 1 { // one product per element: adding it to acc is the same sum either way
			MatMulATAcc(acc, a, c)
			same("MatMulATAcc", acc, want)
		}
		zero := NewMatrix(k, n)
		MatMulATAcc(zero, a, c)
		same("MatMulATAcc from zero", zero, MatMulAT(a, c))
		aT := NewMatrix(k, m)
		for i := 0; i < m; i++ {
			for j := 0; j < k; j++ {
				aT.Set(j, i, a.At(i, j))
			}
		}
		same("MatMulAT vs naive", zero, naiveMatMul(aT, c))
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
