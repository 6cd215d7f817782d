package learnedopt

import (
	"fmt"
	"math"
	"math/rand"

	"neurdb/internal/nn"
)

// MultiHeadAttention is scaled dot-product self-attention over a sequence.
// Input and output are [seq, Dim] matrices; batches of sequences are looped
// externally, which conveniently supports variable-length plan trees.
// This is the "multi-head attention" block of the paper's analyzer module.
type MultiHeadAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *nn.Param

	lastX        *nn.Matrix
	lastQ, lastK *nn.Matrix
	lastV, lastO *nn.Matrix
	lastAttn     []*nn.Matrix // one [n,n] attention matrix per head
}

// NewMultiHeadAttention creates an attention block; dim must be divisible by
// heads.
func NewMultiHeadAttention(dim, heads int, r *rand.Rand) *MultiHeadAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("learnedopt: attention dim %d not divisible by heads %d", dim, heads))
	}
	std := math.Sqrt(2.0 / float64(2*dim))
	return &MultiHeadAttention{
		Dim:   dim,
		Heads: heads,
		Wq:    nn.NewParam("Wq", nn.Randn(dim, dim, std, r)),
		Wk:    nn.NewParam("Wk", nn.Randn(dim, dim, std, r)),
		Wv:    nn.NewParam("Wv", nn.Randn(dim, dim, std, r)),
		Wo:    nn.NewParam("Wo", nn.Randn(dim, dim, std, r)),
	}
}

// headView extracts the columns of head h as an n×dh matrix copy.
func headView(m *nn.Matrix, h, dh int) *nn.Matrix {
	out := nn.NewMatrix(m.Rows, dh)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[h*dh:(h+1)*dh])
	}
	return out
}

// headWrite adds src (n×dh) into the columns of head h of dst.
func headWrite(dst, src *nn.Matrix, h, dh int) {
	for i := 0; i < src.Rows; i++ {
		drow := dst.Row(i)[h*dh : (h+1)*dh]
		srow := src.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// Forward implements nn.Module.
func (a *MultiHeadAttention) Forward(x *nn.Matrix) *nn.Matrix {
	a.lastX = x
	a.lastQ = MatMul(x, a.Wq.W)
	a.lastK = MatMul(x, a.Wk.W)
	a.lastV = MatMul(x, a.Wv.W)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	a.lastAttn = make([]*nn.Matrix, a.Heads)
	o := nn.NewMatrix(x.Rows, a.Dim)
	for h := 0; h < a.Heads; h++ {
		qh := headView(a.lastQ, h, dh)
		kh := headView(a.lastK, h, dh)
		vh := headView(a.lastV, h, dh)
		scores := Scale(MatMulBT(qh, kh), scale)
		attn := SoftmaxRows(scores)
		a.lastAttn[h] = attn
		headWrite(o, MatMul(attn, vh), h, dh)
	}
	a.lastO = o
	return MatMul(o, a.Wo.W)
}

// Backward implements nn.Module.
func (a *MultiHeadAttention) Backward(dy *nn.Matrix) *nn.Matrix {
	nn.AddInPlace(a.Wo.Grad, MatMulAT(a.lastO, dy))
	do := MatMulBT(dy, a.Wo.W)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	dq := nn.NewMatrix(a.lastQ.Rows, a.Dim)
	dk := nn.NewMatrix(a.lastK.Rows, a.Dim)
	dv := nn.NewMatrix(a.lastV.Rows, a.Dim)
	for h := 0; h < a.Heads; h++ {
		qh := headView(a.lastQ, h, dh)
		kh := headView(a.lastK, h, dh)
		vh := headView(a.lastV, h, dh)
		doh := headView(do, h, dh)
		attn := a.lastAttn[h]
		dAttn := MatMulBT(doh, vh)
		dVh := MatMulAT(attn, doh)
		dScores := Scale(SoftmaxBackwardRows(attn, dAttn), scale)
		dQh := MatMul(dScores, kh)
		dKh := MatMulAT(dScores, qh)
		headWrite(dq, dQh, h, dh)
		headWrite(dk, dKh, h, dh)
		headWrite(dv, dVh, h, dh)
	}
	nn.AddInPlace(a.Wq.Grad, MatMulAT(a.lastX, dq))
	nn.AddInPlace(a.Wk.Grad, MatMulAT(a.lastX, dk))
	nn.AddInPlace(a.Wv.Grad, MatMulAT(a.lastX, dv))
	dx := MatMulBT(dq, a.Wq.W)
	nn.AddInPlace(dx, MatMulBT(dk, a.Wk.W))
	nn.AddInPlace(dx, MatMulBT(dv, a.Wv.W))
	return dx
}

// Params implements nn.Module.
func (a *MultiHeadAttention) Params() []*nn.Param {
	return []*nn.Param{a.Wq, a.Wk, a.Wv, a.Wo}
}

// CrossAttention attends a query sequence over a separate context sequence
// (keys/values). It is the fusion block of the paper's learned-optimizer
// encoder: plan tokens attend over system-condition tokens. It is not an
// nn.Module because it takes two inputs.
type CrossAttention struct {
	Dim, Heads     int
	Wq, Wk, Wv, Wo *nn.Param

	lastX, lastCtx *nn.Matrix
	lastQ, lastK   *nn.Matrix
	lastV, lastO   *nn.Matrix
	lastAttn       []*nn.Matrix
}

// NewCrossAttention creates a cross-attention block.
func NewCrossAttention(dim, heads int, r *rand.Rand) *CrossAttention {
	if dim%heads != 0 {
		panic(fmt.Sprintf("learnedopt: cross-attention dim %d not divisible by heads %d", dim, heads))
	}
	std := math.Sqrt(2.0 / float64(2*dim))
	return &CrossAttention{
		Dim:   dim,
		Heads: heads,
		Wq:    nn.NewParam("Wq", nn.Randn(dim, dim, std, r)),
		Wk:    nn.NewParam("Wk", nn.Randn(dim, dim, std, r)),
		Wv:    nn.NewParam("Wv", nn.Randn(dim, dim, std, r)),
		Wo:    nn.NewParam("Wo", nn.Randn(dim, dim, std, r)),
	}
}

// ForwardQKV computes cross-attention: queries from x [m,d], keys/values
// from ctx [n,d]; output is [m,d].
func (a *CrossAttention) ForwardQKV(x, ctx *nn.Matrix) *nn.Matrix {
	a.lastX, a.lastCtx = x, ctx
	a.lastQ = MatMul(x, a.Wq.W)
	a.lastK = MatMul(ctx, a.Wk.W)
	a.lastV = MatMul(ctx, a.Wv.W)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	a.lastAttn = make([]*nn.Matrix, a.Heads)
	o := nn.NewMatrix(x.Rows, a.Dim)
	for h := 0; h < a.Heads; h++ {
		qh := headView(a.lastQ, h, dh)
		kh := headView(a.lastK, h, dh)
		vh := headView(a.lastV, h, dh)
		attn := SoftmaxRows(Scale(MatMulBT(qh, kh), scale))
		a.lastAttn[h] = attn
		headWrite(o, MatMul(attn, vh), h, dh)
	}
	a.lastO = o
	return MatMul(o, a.Wo.W)
}

// BackwardQKV propagates gradients to both inputs, returning (dx, dctx).
func (a *CrossAttention) BackwardQKV(dy *nn.Matrix) (*nn.Matrix, *nn.Matrix) {
	nn.AddInPlace(a.Wo.Grad, MatMulAT(a.lastO, dy))
	do := MatMulBT(dy, a.Wo.W)
	dh := a.Dim / a.Heads
	scale := 1 / math.Sqrt(float64(dh))
	dq := nn.NewMatrix(a.lastQ.Rows, a.Dim)
	dk := nn.NewMatrix(a.lastK.Rows, a.Dim)
	dv := nn.NewMatrix(a.lastV.Rows, a.Dim)
	for h := 0; h < a.Heads; h++ {
		qh := headView(a.lastQ, h, dh)
		kh := headView(a.lastK, h, dh)
		vh := headView(a.lastV, h, dh)
		doh := headView(do, h, dh)
		attn := a.lastAttn[h]
		dAttn := MatMulBT(doh, vh)
		dVh := MatMulAT(attn, doh)
		dScores := Scale(SoftmaxBackwardRows(attn, dAttn), scale)
		dQh := MatMul(dScores, kh)
		dKh := MatMulAT(dScores, qh)
		headWrite(dq, dQh, h, dh)
		headWrite(dk, dKh, h, dh)
		headWrite(dv, dVh, h, dh)
	}
	nn.AddInPlace(a.Wq.Grad, MatMulAT(a.lastX, dq))
	nn.AddInPlace(a.Wk.Grad, MatMulAT(a.lastCtx, dk))
	nn.AddInPlace(a.Wv.Grad, MatMulAT(a.lastCtx, dv))
	dx := MatMulBT(dq, a.Wq.W)
	dctx := MatMulBT(dk, a.Wk.W)
	nn.AddInPlace(dctx, MatMulBT(dv, a.Wv.W))
	return dx, dctx
}

// Params returns the trainable parameters.
func (a *CrossAttention) Params() []*nn.Param {
	return []*nn.Param{a.Wq, a.Wk, a.Wv, a.Wo}
}
