// Package armnet implements ARM-Net-lite, the default in-database analytics
// model (the paper uses ARM-Net, Cai et al., SIGMOD'21, for both NeurDB and
// the PostgreSQL+P baseline). This reduced variant keeps the architecture's
// essence for tabular data — per-field embeddings followed by an adaptive
// gated interaction layer and an MLP head — while replacing the exponential
// cross-feature neurons with a sigmoid-gated bilinear interaction, which
// trains stably in this pure-Go runtime. The substitution is recorded in
// DESIGN.md.
package armnet

import (
	"crypto/sha256"
	"math"
	"math/rand"

	"neurdb/internal/nn"
)

// GatedInteraction models multiplicative feature interactions:
// out = sigmoid(xW_g + b_g) ⊙ tanh(xW_t + b_t). It is the adaptive
// "relation modeling" block between embeddings and the MLP head.
type GatedInteraction struct {
	Gate, Transform *nn.Linear

	lastG, lastT *nn.Matrix
	ws           *nn.Workspace
}

// NewGatedInteraction creates the block mapping in → out features.
func NewGatedInteraction(in, out int, r *rand.Rand) *GatedInteraction {
	return &GatedInteraction{
		Gate:      nn.NewLinear(in, out, r),
		Transform: nn.NewLinear(in, out, r),
	}
}

// SetWorkspace implements nn.WorkspaceUser.
func (g *GatedInteraction) SetWorkspace(ws *nn.Workspace) {
	g.ws = ws
	g.Gate.SetWorkspace(ws)
	g.Transform.SetWorkspace(ws)
}

// Forward implements nn.Module.
func (g *GatedInteraction) Forward(x *nn.Matrix) *nn.Matrix {
	gateLin := g.Gate.Forward(x)
	transLin := g.Transform.Forward(x)
	gate := g.ws.Get(gateLin.Rows, gateLin.Cols)
	tr := g.ws.Get(gateLin.Rows, gateLin.Cols)
	out := g.ws.Get(gateLin.Rows, gateLin.Cols)
	for i, v := range gateLin.Data {
		gate.Data[i] = 1 / (1 + math.Exp(-v))
		tr.Data[i] = math.Tanh(transLin.Data[i])
		out.Data[i] = gate.Data[i] * tr.Data[i]
	}
	g.lastG, g.lastT = gate, tr
	return out
}

// Backward implements nn.Module.
func (g *GatedInteraction) Backward(dy *nn.Matrix) *nn.Matrix {
	dGate, dTrans := g.preActivationGrads(dy)
	dx := g.Gate.Backward(dGate)
	nn.AddInPlace(dx, g.Transform.Backward(dTrans))
	return dx
}

// BackwardParams implements nn.ParamBackward.
func (g *GatedInteraction) BackwardParams(dy *nn.Matrix) {
	dGate, dTrans := g.preActivationGrads(dy)
	g.Gate.BackwardParams(dGate)
	g.Transform.BackwardParams(dTrans)
}

// preActivationGrads turns the output gradient into the gradients of the two
// linear maps' outputs:
// d/dgateLin = dy ⊙ t ⊙ g(1-g);  d/dtransLin = dy ⊙ g ⊙ (1-t²).
func (g *GatedInteraction) preActivationGrads(dy *nn.Matrix) (dGate, dTrans *nn.Matrix) {
	dGate = g.ws.Get(dy.Rows, dy.Cols)
	dTrans = g.ws.Get(dy.Rows, dy.Cols)
	for i := range dy.Data {
		gv, tv := g.lastG.Data[i], g.lastT.Data[i]
		dGate.Data[i] = dy.Data[i] * tv * gv * (1 - gv)
		dTrans.Data[i] = dy.Data[i] * gv * (1 - float64(tv*tv))
	}
	return dGate, dTrans
}

// Params implements nn.Module.
func (g *GatedInteraction) Params() []*nn.Param {
	return append(g.Gate.Params(), g.Transform.Params()...)
}

// Model is ARM-Net-lite. The Sequential layout is
//
//	[0] Embedding            (frozen during incremental updates)
//	[1] GatedInteraction     (frozen during incremental updates)
//	[2] Linear + ReLU hidden (fine-tuned)
//	[3] (ReLU)
//	[4] Linear head → 1      (fine-tuned)
//
// matching the paper's incremental-update recipe: freeze the
// representation prefix, adapt the final layers.
type Model struct {
	Net            *nn.Sequential
	Fields         int
	Classification bool

	params []*nn.Param // Net.Params(), listed once
	// ws is the scratch every forward and backward pass runs on: a step
	// allocates nothing once its buffers have grown, and a matrix a method
	// returns is valid until the model's next call.
	ws nn.Workspace

	// memo, when set, supplies the frozen prefix's output for rows it has
	// seen under these weights (UseMemo); miss is lookup scratch.
	memo       *PrefixMemo
	weights    [sha256.Size]byte
	prefixCols int
	miss       []int
}

// FreezePrefixLayers is the number of leading layers frozen by incremental
// updates (embedding + interaction).
const FreezePrefixLayers = 2

// New builds an ARM-Net-lite for the given shape.
func New(fields, vocab, embDim, hidden int, classification bool, seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	net := nn.NewSequential(
		nn.NewEmbedding(vocab, embDim, r),
		NewGatedInteraction(fields*embDim, hidden, r),
		nn.NewLinear(hidden, hidden, r),
		&nn.ReLU{},
		nn.NewLinear(hidden, 1, r),
	)
	m := &Model{Net: net, Fields: fields, Classification: classification, params: net.Params()}
	net.SetWorkspace(&m.ws)
	return m
}

// forward runs the model as frozen prefix → head. With nothing frozen the
// prefix is empty and the head is the whole network.
func (m *Model) forward(x *nn.Matrix) *nn.Matrix { return m.Net.ForwardHead(m.prefix(x)) }

// prefix returns the frozen prefix's output for the rows of x: memoized rows
// are copied, the rest go through the prefix in one batched pass.
func (m *Model) prefix(x *nn.Matrix) *nn.Matrix {
	if m.memo == nil {
		return m.Net.ForwardPrefix(x)
	}
	h := m.ws.Get(x.Rows, m.prefixCols)
	m.miss = m.memo.lookup(m.weights, x, h, m.miss[:0])
	if len(m.miss) == 0 {
		return h
	}
	xm := m.ws.Get(len(m.miss), x.Cols)
	for i, r := range m.miss {
		copy(xm.Row(i), x.Row(r))
	}
	hm := m.Net.ForwardPrefix(xm)
	for i, r := range m.miss {
		copy(h.Row(r), hm.Row(i))
	}
	m.memo.store(m.weights, xm, hm)
	return h
}

// loss computes the task loss of out against y and its gradient w.r.t. out.
func (m *Model) loss(out, y *nn.Matrix) (float64, *nn.Matrix) {
	grad := m.ws.Get(out.Rows, out.Cols)
	if m.Classification {
		return nn.BCEWithLogitsLossInto(grad, out, y), grad
	}
	return nn.MSELossInto(grad, out, y), grad
}

// TrainBatch runs one optimization step and returns the batch loss. It is the
// one training step: a full training run takes it with an empty frozen prefix,
// a fine-tune with the prefix Freeze set — and then pays for the head only:
// backward stops at the lowest trainable layer, and the prefix is computed
// only for rows the memo does not hold.
func (m *Model) TrainBatch(x, y *nn.Matrix, opt *nn.Adam) float64 {
	m.ws.Reset()
	opt.ZeroGrad(m.params)
	loss, grad := m.loss(m.forward(x), y)
	m.Net.Backward(grad)
	nn.ClipGradNorm(m.params, 5)
	opt.Step(m.params)
	return loss
}

// Predict returns predictions: probabilities for classification, values for
// regression.
func (m *Model) Predict(x *nn.Matrix) *nn.Matrix {
	m.ws.Reset()
	out := m.forward(x)
	if !m.Classification {
		return out
	}
	probs := m.ws.Get(out.Rows, out.Cols)
	for i, v := range out.Data {
		probs.Data[i] = 1 / (1 + math.Exp(-v))
	}
	return probs
}

// Freeze splits the model into a frozen prefix, layers [0, n), and the head
// that trains; 0 makes every layer trainable. It drops the memo: its entries
// belong to the previous prefix.
func (m *Model) Freeze(n int) {
	m.Net.FreezeUpTo(n)
	m.memo = nil
}

// UseMemo lets the model take the frozen prefix's output from memo, under a
// key made of the content hash of the frozen layers' weights as they are now:
// call it after Restore and Freeze. The hash is what makes an entry
// impossible to serve stale — other weights are another key — and a frozen
// layer's weights do not change while the split stands. With nothing frozen
// there is nothing to memoize.
func (m *Model) UseMemo(memo *PrefixMemo) {
	m.memo = nil
	if memo == nil || m.Net.Frozen() == 0 {
		return
	}
	m.weights = hashLayers(m.Net.Layers[:m.Net.Frozen()])
	m.prefixCols = m.Net.ForwardPrefix(nn.NewMatrix(1, m.Fields)).Cols
	m.memo = memo
}

// Snapshot returns per-layer weight snapshots aligned with the store's LID
// space.
func (m *Model) Snapshot() []nn.LayerWeights { return nn.SnapshotSequential(m.Net) }

// Restore loads per-layer snapshots. Like Freeze it drops the memo.
func (m *Model) Restore(layers []nn.LayerWeights) error {
	m.memo = nil
	return nn.RestoreSequential(m.Net, layers)
}
