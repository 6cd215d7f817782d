package learnedopt

import (
	"math"
	"math/rand"
	"testing"

	"neurdb/internal/nn"
)

// scalarLoss runs forward and returns 0.5*sum(y²) — a simple scalar whose
// gradient w.r.t. y is y itself, making analytic backprop easy to seed.
func scalarLoss(y *nn.Matrix) (float64, *nn.Matrix) {
	var loss float64
	grad := nn.NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		loss += 0.5 * v * v
		grad.Data[i] = v
	}
	return loss, grad
}

// numericGrad returns the central finite difference of loss w.r.t. *x.
func numericGrad(x *float64, loss func() float64) float64 {
	const eps = 1e-5
	orig := *x
	*x = orig + eps
	lp := loss()
	*x = orig - eps
	lm := loss()
	*x = orig
	return (lp - lm) / (2 * eps)
}

// checkGrads compares analytic gradients with numeric ones, element by
// element.
func checkGrads(t *testing.T, what string, vals, grads []float64, loss func() float64, tol float64) {
	t.Helper()
	for i := range vals {
		num := numericGrad(&vals[i], loss)
		if math.Abs(num-grads[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("%s elem %d: analytic %.8f vs numeric %.8f", what, i, grads[i], num)
		}
	}
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	mha := NewMultiHeadAttention(8, 2, r)
	x := nn.Randn(5, 8, 1, r)
	_, dy := scalarLoss(mha.Forward(x))
	dx := mha.Backward(dy)
	lossAt := func() float64 {
		l, _ := scalarLoss(mha.Forward(x))
		return l
	}
	for _, p := range mha.Params() {
		checkGrads(t, "MHA param "+p.Name, p.W.Data, p.Grad.Data, lossAt, 1e-4)
	}
	checkGrads(t, "MHA dx", x.Data, dx.Data, lossAt, 1e-4)
}

func TestCrossAttentionGradients(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ca := NewCrossAttention(8, 2, r)
	x := nn.Randn(3, 8, 1, r)
	ctx := nn.Randn(4, 8, 1, r)
	_, dy := scalarLoss(ca.ForwardQKV(x, ctx))
	dx, dctx := ca.BackwardQKV(dy)
	lossAt := func() float64 {
		l, _ := scalarLoss(ca.ForwardQKV(x, ctx))
		return l
	}
	for _, p := range ca.Params() {
		checkGrads(t, "cross-attn param "+p.Name, p.W.Data, p.Grad.Data, lossAt, 1e-4)
	}
	checkGrads(t, "cross-attn dx", x.Data, dx.Data, lossAt, 1e-4)
	checkGrads(t, "cross-attn dctx", ctx.Data, dctx.Data, lossAt, 1e-4)
}

func TestSoftmaxCELossGradients(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	logits := nn.Randn(4, 5, 1, r)
	labels := []int{0, 2, 4, 1}
	_, grad := SoftmaxCELoss(logits, labels)
	checkGrads(t, "softmaxCE", logits.Data, grad.Data, func() float64 {
		l, _ := SoftmaxCELoss(logits, labels)
		return l
	}, 1e-5)
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	s := SoftmaxRows(nn.Randn(5, 7, 3, r))
	for i := 0; i < s.Rows; i++ {
		var total float64
		for _, v := range s.Row(i) {
			if v < 0 || v > 1 {
				t.Fatal("softmax out of range")
			}
			total += v
		}
		if math.Abs(total-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, total)
		}
	}
}

// TestConcatVStackMean keeps its name from when Concat and VStack lived in
// nn; of the three, MeanRows is what remains.
func TestConcatVStackMean(t *testing.T) {
	m := MeanRows(FromRows([][]float64{{1, 2}, {3, 4}}))
	if m.At(0, 0) != 2 || m.At(0, 1) != 3 {
		t.Fatal("MeanRows wrong")
	}
	if MeanRows(nn.NewMatrix(0, 2)).At(0, 0) != 0 {
		t.Fatal("MeanRows of empty should be zero")
	}
}

// TestMatrixHelpers keeps the checks the allocating helpers had in nn: Add and
// Scale compute elementwise, and FromRows, Add and MatMul refuse shapes that
// do not fit.
func TestMatrixHelpers(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	a := nn.Randn(3, 4, 1, r)
	b := nn.Randn(3, 4, 1, r)
	sum, sc := Add(a, b), Scale(a, 2.5)
	for i := range a.Data {
		if sum.Data[i] != a.Data[i]+b.Data[i] || sc.Data[i] != 2.5*a.Data[i] {
			t.Fatal("elementwise op wrong")
		}
	}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s should panic", name)
			}
		}()
		f()
	}
	c, d := nn.NewMatrix(2, 3), nn.NewMatrix(4, 5)
	expectPanic("FromRows", func() { FromRows([][]float64{{1, 2}, {3}}) })
	expectPanic("Add", func() { Add(c, d) })
	expectPanic("MatMul", func() { MatMul(c, d) })
}
