package nn

import (
	"math"
	"math/rand"
	"testing"
)

// scalarLoss runs forward and returns 0.5*sum(y²) — a simple scalar whose
// gradient w.r.t. y is y itself, making analytic backprop easy to seed.
func scalarLoss(y *Matrix) (float64, *Matrix) {
	var loss float64
	grad := NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		loss += 0.5 * v * v
		grad.Data[i] = v
	}
	return loss, grad
}

// checkModuleGradients verifies analytic parameter and input gradients of a
// module against central finite differences.
func checkModuleGradients(t *testing.T, name string, m Module, x *Matrix, tol float64) {
	t.Helper()
	// Analytic.
	for _, p := range m.Params() {
		p.Grad.Zero()
	}
	y := m.Forward(x)
	_, dy := scalarLoss(y)
	dx := m.Backward(dy)

	const eps = 1e-5
	// Parameter gradients.
	for pi, p := range m.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp, _ := scalarLoss(m.Forward(x))
			p.W.Data[i] = orig - eps
			lm, _ := scalarLoss(m.Forward(x))
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := p.Grad.Data[i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: param %d elem %d: analytic %.8f vs numeric %.8f", name, pi, i, got, num)
			}
		}
	}
	// Input gradients.
	if _, isEmb := m.(*Embedding); !isEmb {
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp, _ := scalarLoss(m.Forward(x))
			x.Data[i] = orig - eps
			lm, _ := scalarLoss(m.Forward(x))
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			got := dx.Data[i]
			if math.Abs(num-got) > tol*(1+math.Abs(num)) {
				t.Fatalf("%s: input elem %d: analytic %.8f vs numeric %.8f", name, i, got, num)
			}
		}
	}
}

func TestLinearGradients(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	checkModuleGradients(t, "Linear", NewLinear(4, 3, r), Randn(5, 4, 1, r), 1e-5)
}

func TestReLUGradients(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	// Keep inputs away from the kink at 0.
	x := Randn(4, 6, 1, r)
	for i := range x.Data {
		if math.Abs(x.Data[i]) < 0.1 {
			x.Data[i] += 0.2
		}
	}
	checkModuleGradients(t, "ReLU", &ReLU{}, x, 1e-5)
}

func TestEmbeddingGradients(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	emb := NewEmbedding(10, 3, r)
	x := FromRows([][]float64{{0, 5, 9}, {2, 2, 7}})
	checkModuleGradients(t, "Embedding", emb, x, 1e-5)
}

func TestEmbeddingClampsOutOfRangeIDs(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	emb := NewEmbedding(4, 2, r)
	x := FromRows([][]float64{{-3, 99}})
	y := emb.Forward(x)
	want0 := emb.Table.W.Row(0)
	want3 := emb.Table.W.Row(3)
	if y.At(0, 0) != want0[0] || y.At(0, 2) != want3[0] {
		t.Fatal("out-of-range ids should clamp to table bounds")
	}
}

func TestMultiHeadAttentionGradients(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	mha := NewMultiHeadAttention(8, 2, r)
	checkModuleGradients(t, "MHA", mha, Randn(5, 8, 1, r), 1e-4)
}

func TestSequentialGradients(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	seq := NewSequential(
		NewLinear(4, 8, r),
		&ReLU{},
		NewLinear(8, 2, r),
	)
	checkModuleGradients(t, "Sequential", seq, Randn(3, 4, 1, r), 1e-4)
}

func TestCrossAttentionGradients(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ca := NewCrossAttention(8, 2, r)
	x := Randn(3, 8, 1, r)
	ctx := Randn(4, 8, 1, r)

	for _, p := range ca.Params() {
		p.Grad.Zero()
	}
	y := ca.ForwardQKV(x, ctx)
	_, dy := scalarLoss(y)
	dx, dctx := ca.BackwardQKV(dy)

	const eps, tol = 1e-5, 1e-4
	lossAt := func() float64 {
		l, _ := scalarLoss(ca.ForwardQKV(x, ctx))
		return l
	}
	for pi, p := range ca.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("cross-attn param %d elem %d: analytic %.8f vs numeric %.8f", pi, i, p.Grad.Data[i], num)
			}
		}
	}
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := lossAt()
		x.Data[i] = orig - eps
		lm := lossAt()
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("cross-attn dx elem %d: analytic %.8f vs numeric %.8f", i, dx.Data[i], num)
		}
	}
	for i := range ctx.Data {
		orig := ctx.Data[i]
		ctx.Data[i] = orig + eps
		lp := lossAt()
		ctx.Data[i] = orig - eps
		lm := lossAt()
		ctx.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dctx.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("cross-attn dctx elem %d: analytic %.8f vs numeric %.8f", i, dctx.Data[i], num)
		}
	}
}

func TestSoftmaxCELossGradients(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	logits := Randn(4, 5, 1, r)
	labels := []int{0, 2, 4, 1}
	_, grad := SoftmaxCELoss(logits, labels)
	const eps, tol = 1e-6, 1e-5
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCELoss(logits, labels)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCELoss(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("softmaxCE elem %d: analytic %.8f vs numeric %.8f", i, grad.Data[i], num)
		}
	}
}

func TestBCEWithLogitsGradients(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	logits := Randn(6, 1, 2, r)
	target := NewMatrix(6, 1)
	for i := range target.Data {
		if r.Intn(2) == 0 {
			target.Data[i] = 1
		}
	}
	_, grad := BCEWithLogitsLoss(logits, target)
	const eps, tol = 1e-6, 1e-5
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := BCEWithLogitsLoss(logits, target)
		logits.Data[i] = orig - eps
		lm, _ := BCEWithLogitsLoss(logits, target)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("bce elem %d: analytic %.8f vs numeric %.8f", i, grad.Data[i], num)
		}
	}
}

func TestMSELossGradients(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	pred := Randn(5, 2, 1, r)
	target := Randn(5, 2, 1, r)
	_, grad := MSELoss(pred, target)
	const eps, tol = 1e-6, 1e-5
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + eps
		lp, _ := MSELoss(pred, target)
		pred.Data[i] = orig - eps
		lm, _ := MSELoss(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-grad.Data[i]) > tol*(1+math.Abs(num)) {
			t.Fatalf("mse elem %d: analytic %.8f vs numeric %.8f", i, grad.Data[i], num)
		}
	}
}
