package nn

import (
	"math"
	"math/rand"
)

// Param is a trainable parameter tensor with its gradient accumulator.
// Frozen parameters are skipped by optimizers — the mechanism behind the
// paper's incremental model update (freeze the prefix, fine-tune the tail).
type Param struct {
	Name   string
	W      *Matrix
	Grad   *Matrix
	Frozen bool
}

// NewParam allocates a parameter with a zeroed gradient.
func NewParam(name string, w *Matrix) *Param {
	return &Param{Name: name, W: w, Grad: NewMatrix(w.Rows, w.Cols)}
}

// Module is a differentiable layer. Forward caches whatever Backward needs;
// Backward consumes the gradient w.r.t. the output and returns the gradient
// w.r.t. the input (nil from a layer with no differentiable input),
// accumulating the gradients of its trainable parameters along the way: a
// frozen parameter's Grad is never touched.
type Module interface {
	Forward(x *Matrix) *Matrix
	Backward(dy *Matrix) *Matrix
	Params() []*Param
}

// ParamBackward is implemented by layers that can accumulate their parameter
// gradients without computing the gradient w.r.t. their input — what the
// lowest trainable layer above a frozen prefix needs (Sequential.Backward).
type ParamBackward interface {
	BackwardParams(dy *Matrix)
}

// WorkspaceUser is implemented by layers that can take their output and
// gradient matrices from a Workspace instead of allocating them.
type WorkspaceUser interface {
	SetWorkspace(*Workspace)
}

// Linear is a fully connected layer: y = xW + b.
type Linear struct {
	WP, BP *Param
	lastX  *Matrix
	ws     *Workspace
}

// NewLinear creates a Linear layer with Xavier-style initialization.
func NewLinear(in, out int, r *rand.Rand) *Linear {
	std := math.Sqrt(2.0 / float64(in+out))
	return &Linear{
		WP: NewParam("W", Randn(in, out, std, r)),
		BP: NewParam("b", NewMatrix(1, out)),
	}
}

// SetWorkspace implements WorkspaceUser.
func (l *Linear) SetWorkspace(ws *Workspace) { l.ws = ws }

// Forward implements Module.
func (l *Linear) Forward(x *Matrix) *Matrix {
	l.lastX = x
	out := l.ws.Get(x.Rows, l.WP.W.Cols)
	MatMulBiasInto(out, x, l.WP.W, l.BP.W.Data)
	return out
}

// Backward implements Module.
func (l *Linear) Backward(dy *Matrix) *Matrix {
	l.BackwardParams(dy)
	dx := l.ws.Get(dy.Rows, l.WP.W.Rows)
	MatMulBTInto(dx, dy, l.WP.W)
	return dx
}

// BackwardParams implements ParamBackward.
func (l *Linear) BackwardParams(dy *Matrix) {
	if !l.WP.Frozen {
		MatMulATAcc(l.WP.Grad, l.lastX, dy, l.ws)
	}
	if !l.BP.Frozen {
		for i := 0; i < dy.Rows; i++ {
			for j, v := range dy.Row(i) {
				l.BP.Grad.Data[j] += v
			}
		}
	}
}

// Params implements Module.
func (l *Linear) Params() []*Param { return []*Param{l.WP, l.BP} }

// ReLU is the rectified linear activation.
type ReLU struct {
	lastX *Matrix
	ws    *Workspace
}

// SetWorkspace implements WorkspaceUser.
func (l *ReLU) SetWorkspace(ws *Workspace) { l.ws = ws }

// Forward implements Module.
func (l *ReLU) Forward(x *Matrix) *Matrix {
	l.lastX = x
	out := l.ws.Get(x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = math.Float64frombits(reluMask(v) & math.Float64bits(v))
	}
	return out
}

// Backward implements Module.
func (l *ReLU) Backward(dy *Matrix) *Matrix {
	out := l.ws.Get(dy.Rows, dy.Cols)
	dyd := dy.Data[:len(l.lastX.Data)]
	for i, v := range l.lastX.Data {
		out.Data[i] = math.Float64frombits(reluMask(v) & math.Float64bits(dyd[i]))
	}
	return out
}

// reluMask is all ones where v > 0 and zero elsewhere — for ±0, negatives and
// NaNs. v > 0 exactly when its bits, less one, are below +Inf's as unsigned
// integers: one compare the compiler turns into a conditional move, not a
// branch, which matters because about half of a layer's inputs are positive,
// in no order a branch predictor could learn.
func reluMask(v float64) uint64 {
	m := uint64(0)
	if math.Float64bits(v)-1 < 0x7ff0000000000000 {
		m = ^m
	}
	return m
}

// Params implements Module.
func (l *ReLU) Params() []*Param { return nil }

// Embedding maps integer ids (provided as float64 entries of the input) to
// dense vectors. An input of shape n×k (k categorical fields) produces an
// output of shape n×(k·Dim), the concatenation of the field embeddings.
type Embedding struct {
	Table *Param
	Dim   int
	lastX *Matrix
	ws    *Workspace
}

// NewEmbedding creates an embedding table with vocab rows of width dim.
func NewEmbedding(vocab, dim int, r *rand.Rand) *Embedding {
	return &Embedding{Table: NewParam("emb", Randn(vocab, dim, 0.1, r)), Dim: dim}
}

// SetWorkspace implements WorkspaceUser.
func (e *Embedding) SetWorkspace(ws *Workspace) { e.ws = ws }

// Forward implements Module.
func (e *Embedding) Forward(x *Matrix) *Matrix {
	e.lastX = x
	out := e.ws.Get(x.Rows, x.Cols*e.Dim)
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			id := e.clampID(x.At(i, j))
			copy(out.Row(i)[j*e.Dim:(j+1)*e.Dim], e.Table.W.Row(id))
		}
	}
	return out
}

// Backward implements Module. Embeddings sit at the bottom of the network:
// ids have no gradient, so there is none to return.
func (e *Embedding) Backward(dy *Matrix) *Matrix {
	if e.Table.Frozen {
		return nil
	}
	for i := 0; i < e.lastX.Rows; i++ {
		for j := 0; j < e.lastX.Cols; j++ {
			id := e.clampID(e.lastX.At(i, j))
			grow := e.Table.Grad.Row(id)
			drow := dy.Row(i)[j*e.Dim : (j+1)*e.Dim]
			for d, v := range drow {
				grow[d] += v
			}
		}
	}
	return nil
}

func (e *Embedding) clampID(v float64) int {
	id := int(v)
	if id < 0 {
		id = 0
	}
	if id >= e.Table.W.Rows {
		id = e.Table.W.Rows - 1
	}
	return id
}

// Params implements Module.
func (e *Embedding) Params() []*Param { return []*Param{e.Table} }

// Sequential chains modules; the fundamental composite used for MLP heads.
type Sequential struct {
	Layers []Module
	// FreezeUpTo's boundary: layers [0, frozen) are the frozen prefix, the
	// rest the head, and bottom is the lowest head layer with a parameter.
	frozen, bottom int
}

// NewSequential chains the given modules.
func NewSequential(layers ...Module) *Sequential { return &Sequential{Layers: layers} }

// Forward implements Module.
func (s *Sequential) Forward(x *Matrix) *Matrix { return s.ForwardHead(s.ForwardPrefix(x)) }

// ForwardPrefix runs the frozen prefix: a function of x and of weights no
// training step changes, so its output for a given row can be kept. With
// nothing frozen it returns x.
func (s *Sequential) ForwardPrefix(x *Matrix) *Matrix {
	for _, l := range s.Layers[:s.frozen] {
		x = l.Forward(x)
	}
	return x
}

// ForwardHead runs the layers above the frozen prefix on the prefix's output.
func (s *Sequential) ForwardHead(h *Matrix) *Matrix {
	for _, l := range s.Layers[s.frozen:] {
		h = l.Forward(h)
	}
	return h
}

// Backward implements Module. Above a frozen prefix it goes no deeper than
// the lowest trainable layer, which accumulates its parameter gradients only
// — nothing below it can learn, so the input gradient would be computed for
// nobody — and returns nil: the prefix is the bottom of the network.
func (s *Sequential) Backward(dy *Matrix) *Matrix {
	if s.frozen == 0 {
		for i := len(s.Layers) - 1; i >= 0; i-- {
			dy = s.Layers[i].Backward(dy)
		}
		return dy
	}
	for i := len(s.Layers) - 1; i > s.bottom; i-- {
		dy = s.Layers[i].Backward(dy)
	}
	if s.bottom < len(s.Layers) {
		if pb, ok := s.Layers[s.bottom].(ParamBackward); ok {
			pb.BackwardParams(dy)
		} else {
			s.Layers[s.bottom].Backward(dy)
		}
	}
	return nil
}

// Params implements Module.
func (s *Sequential) Params() []*Param {
	var out []*Param
	for _, l := range s.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// SetWorkspace implements WorkspaceUser for the layers that are one.
func (s *Sequential) SetWorkspace(ws *Workspace) {
	for _, l := range s.Layers {
		if wu, ok := l.(WorkspaceUser); ok {
			wu.SetWorkspace(ws)
		}
	}
}

// FreezeUpTo freezes the parameters of layers [0, n) — the incremental
// update primitive: the first n layers keep their weights while the tail is
// fine-tuned. n is clamped to the layer count; 0 unfreezes everything.
func (s *Sequential) FreezeUpTo(n int) {
	s.frozen = min(max(n, 0), len(s.Layers))
	s.bottom = len(s.Layers)
	for i, l := range s.Layers {
		frozen := i < s.frozen
		for _, p := range l.Params() {
			p.Frozen = frozen
		}
		if !frozen && len(l.Params()) > 0 {
			s.bottom = min(s.bottom, i)
		}
	}
}

// Frozen returns FreezeUpTo's boundary: the length of the frozen prefix.
func (s *Sequential) Frozen() int { return s.frozen }
