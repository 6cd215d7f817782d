// Package learnedopt implements the paper's fast-adaptive learned query
// optimizer (§4.2, Fig. 5), the "NeurDB" system of the Figure 8 harness: a
// dual-module model. The *encoder* projects tree-linearized candidate-plan
// tokens and system-condition tokens (buffer information + data
// statistics) and fuses them with cross-attention; the *analyzer* runs
// multi-head attention across the candidate embeddings and an MLP that
// scores each candidate, selecting the plan best suited to the *current*
// system conditions.
//
// It is figure-only code: the engine plans with the cost-based optimizer on
// live statistics, and only the harness ranks candidates with this model.
// Figure 8's other systems live beside it in internal/bench: Bao and Lero
// (fig8baselines.go), and the cost-based optimizer planning on stale
// statistics in the "PostgreSQL" role. What only figure code trains with
// lives here too, on top of nn's kernels: the attention blocks
// (attention.go), the plan encoder (encode.go) and the allocating matrix
// helpers and losses that Bao and Lero share (matrix.go).
package learnedopt

import (
	"math"
	"math/rand"

	"neurdb/internal/catalog"
	"neurdb/internal/nn"
	"neurdb/internal/plan"
	"neurdb/internal/storage"
)

// CondFeatureDim is the width of one system-condition token. One token per
// table (padded/truncated to MaxCondTokens) plus one global buffer token.
const CondFeatureDim = 8

// MaxCondTokens bounds the condition sequence length.
const MaxCondTokens = 9

// BuildConditions encodes current system conditions: one token per table
// (data statistics: row count, NDV, value span — and buffer residency) plus
// a global buffer token. This is the model input that changes under drift,
// giving the learned optimizer its adaptivity. The buffer information (paper
// Fig. 5) is three reads of the pool: its hit ratio and fill fraction in
// the global token, and each table's resident fraction, which the pool
// counts from its LRU membership when asked (one arena walk per table).
func BuildConditions(tables []*catalog.Table, pool *storage.BufferPool) *nn.Matrix {
	rows := make([][]float64, 0, MaxCondTokens)
	global := make([]float64, CondFeatureDim)
	global[0] = 1 // bias/global marker
	if pool != nil {
		global[1] = pool.HitRatio()
		global[2] = float64(pool.Len()) / float64(max(pool.Capacity(), 1))
	}
	rows = append(rows, global)
	for i, t := range tables {
		if i >= MaxCondTokens-1 {
			break
		}
		tok := make([]float64, CondFeatureDim)
		st := t.Stats
		nRows := float64(st.Rows())
		tok[0] = 0
		tok[1] = math.Log1p(nRows) / 20
		tok[2] = float64(t.ID%16) / 16
		if pool != nil {
			tok[3] = pool.ResidentFraction(t.ID, t.Heap.NumPages())
		}
		// Aggregate column statistics: mean NDV ratio and mean value span.
		arity := t.Schema.Arity()
		var ndvSum, spanSum float64
		for c := 0; c < arity; c++ {
			cs := st.Col(c)
			if cs.Count > 0 {
				ndvSum += float64(cs.Distinct) / float64(cs.Count)
				spanSum += math.Log1p(math.Abs(cs.Max-cs.Min)) / 20
			}
		}
		if arity > 0 {
			tok[4] = ndvSum / float64(arity)
			tok[5] = spanSum / float64(arity)
		}
		tok[6] = math.Log1p(float64(t.Heap.NumPages())) / 15
		tok[7] = 1
		rows = append(rows, tok)
	}
	return FromRows(rows)
}

// Model is the dual-module learned optimizer.
type Model struct {
	D, Heads int

	tokenProj *nn.Linear
	condProj  *nn.Linear
	cross     *CrossAttention
	analyzer  *MultiHeadAttention
	mlp       *nn.Sequential
}

// NewModel builds the model with embedding width d (divisible by heads).
func NewModel(d, heads int, seed int64) *Model {
	r := rand.New(rand.NewSource(seed))
	return &Model{
		D: d, Heads: heads,
		tokenProj: nn.NewLinear(NodeFeatureDim, d, r),
		condProj:  nn.NewLinear(CondFeatureDim, d, r),
		cross:     NewCrossAttention(d, heads, r),
		analyzer:  NewMultiHeadAttention(d, heads, r),
		mlp: nn.NewSequential(
			nn.NewLinear(d, 2*d, r),
			&nn.ReLU{},
			nn.NewLinear(2*d, 1, r),
		),
	}
}

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param {
	out := append([]*nn.Param{}, m.tokenProj.Params()...)
	out = append(out, m.condProj.Params()...)
	out = append(out, m.cross.Params()...)
	out = append(out, m.analyzer.Params()...)
	out = append(out, m.mlp.Params()...)
	return out
}

// linearView shares parameters but keeps a private forward cache, so each
// candidate's backward pass sees its own activations.
func linearView(l *nn.Linear) *nn.Linear { return &nn.Linear{WP: l.WP, BP: l.BP} }

func crossView(c *CrossAttention) *CrossAttention {
	return &CrossAttention{Dim: c.Dim, Heads: c.Heads, Wq: c.Wq, Wk: c.Wk, Wv: c.Wv, Wo: c.Wo}
}

// candState carries the per-candidate caches needed for backward.
type candState struct {
	tproj *nn.Linear
	cview *CrossAttention
	rows  int
}

// forward scores all candidates; states are retained for backward.
func (m *Model) forward(tokens [][][]float64, cond *nn.Matrix) (*nn.Matrix, []candState, *nn.Matrix, *nn.Matrix) {
	condProj := m.condProj.Forward(cond)
	k := len(tokens)
	e := nn.NewMatrix(k, m.D)
	states := make([]candState, k)
	for i, tok := range tokens {
		x := FromRows(tok)
		tv := linearView(m.tokenProj)
		cv := crossView(m.cross)
		xp := tv.Forward(x)
		f := cv.ForwardQKV(xp, condProj)
		fused := Add(xp, f) // residual
		pooled := MeanRows(fused)
		copy(e.Row(i), pooled.Row(0))
		states[i] = candState{tproj: tv, cview: cv, rows: xp.Rows}
	}
	a := m.analyzer.Forward(e)
	e2 := Add(e, a) // residual
	scores := m.mlp.Forward(e2)
	return scores, states, e, condProj
}

// Choose returns the index of the best-scored candidate plan.
func (m *Model) Choose(tokens [][][]float64, cond *nn.Matrix) int {
	if len(tokens) == 0 {
		return 0
	}
	if len(tokens) == 1 {
		return 0
	}
	scores, _, _, _ := m.forward(tokens, cond)
	best := 0
	for i := 1; i < scores.Rows; i++ {
		if scores.At(i, 0) > scores.At(best, 0) {
			best = i
		}
	}
	return best
}

// Example is one training instance: candidate plan token sequences, the
// system conditions at execution time, and the index of the fastest
// candidate (by measured runtime).
type Example struct {
	Tokens [][][]float64
	Cond   *nn.Matrix
	Best   int
}

// TrainExample runs one optimization step (softmax cross-entropy on the
// best-candidate label) and returns the loss.
func (m *Model) TrainExample(ex Example, opt *nn.Adam) float64 {
	if len(ex.Tokens) < 2 {
		return 0
	}
	params := m.Params()
	opt.ZeroGrad(params)
	scores, states, _, _ := m.forward(ex.Tokens, ex.Cond)

	// scores is [K,1]; build [1,K] logits for the CE loss.
	k := scores.Rows
	logits := nn.NewMatrix(1, k)
	for i := 0; i < k; i++ {
		logits.Set(0, i, scores.At(i, 0))
	}
	loss, dlogits := SoftmaxCELoss(logits, []int{ex.Best})
	dscores := nn.NewMatrix(k, 1)
	for i := 0; i < k; i++ {
		dscores.Set(i, 0, dlogits.At(0, i))
	}

	// Backward through analyzer + encoder.
	de2 := m.mlp.Backward(dscores)
	de := Add(de2, m.analyzer.Backward(de2))
	var dcondSum *nn.Matrix
	for i, st := range states {
		dpooled := de.Row(i)
		dxf := nn.NewMatrix(st.rows, m.D)
		inv := 1.0 / float64(st.rows)
		for r := 0; r < st.rows; r++ {
			row := dxf.Row(r)
			for c := 0; c < m.D; c++ {
				row[c] = dpooled[c] * inv
			}
		}
		dxq, dcond := st.cview.BackwardQKV(dxf)
		dx := Add(dxf, dxq) // residual: fused = xp + f
		st.tproj.Backward(dx)
		if dcondSum == nil {
			dcondSum = dcond
		} else {
			nn.AddInPlace(dcondSum, dcond)
		}
	}
	if dcondSum != nil {
		m.condProj.Backward(dcondSum)
	}
	nn.ClipGradNorm(params, 5)
	opt.Step(params)
	return loss
}

// EncodeCandidates turns candidate plans into token sequences.
func EncodeCandidates(cands []plan.Node) [][][]float64 {
	out := make([][][]float64, len(cands))
	for i, c := range cands {
		out[i] = EncodeTree(c)
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
