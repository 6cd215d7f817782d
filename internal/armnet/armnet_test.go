package armnet

import (
	"math"
	"math/rand"
	"testing"

	"neurdb/internal/nn"
)

func TestGatedInteractionGradients(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := NewGatedInteraction(4, 3, r)
	x := nn.Randn(5, 4, 1, r)

	for _, p := range g.Params() {
		p.Grad.Zero()
	}
	y := g.Forward(x)
	// loss = 0.5*sum(y²)
	var loss0 float64
	dy := nn.NewMatrix(y.Rows, y.Cols)
	for i, v := range y.Data {
		loss0 += 0.5 * v * v
		dy.Data[i] = v
	}
	_ = loss0
	dx := g.Backward(dy)

	lossAt := func() float64 {
		out := g.Forward(x)
		var l float64
		for _, v := range out.Data {
			l += 0.5 * v * v
		}
		return l
	}
	const eps, tol = 1e-5, 1e-4
	for pi, p := range g.Params() {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossAt()
			p.W.Data[i] = orig - eps
			lm := lossAt()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %d elem %d: analytic %.8f vs numeric %.8f", pi, i, p.Grad.Data[i], num)
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
			t.Fatalf("input elem %d: analytic %.8f vs numeric %.8f", i, dx.Data[i], num)
		}
	}
}

// synthBatch builds a learnable categorical task: label depends on id%5.
func synthBatch(r *rand.Rand, n, fields, vocab int, cls bool) (*nn.Matrix, *nn.Matrix) {
	x := nn.NewMatrix(n, fields)
	y := nn.NewMatrix(n, 1)
	for i := 0; i < n; i++ {
		var signal float64
		for f := 0; f < fields; f++ {
			id := r.Intn(vocab)
			x.Set(i, f, float64(id))
			signal += float64(id%5) / 5
		}
		signal /= float64(fields)
		if cls {
			if signal > 0.4 {
				y.Set(i, 0, 1)
			}
		} else {
			y.Set(i, 0, signal)
		}
	}
	return x, y
}

func TestRegressionTrainingConverges(t *testing.T) {
	m := New(3, 24, 4, 16, false, 1)
	r := rand.New(rand.NewSource(2))
	opt := nn.NewAdam(0.01)
	var first, last float64
	for i := 0; i < 150; i++ {
		x, y := synthBatch(r, 64, 3, 24, false)
		loss := m.TrainBatch(x, y, opt)
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first {
		t.Fatalf("regression loss did not decrease: %.4f -> %.4f", first, last)
	}
	// Predict does not change weights.
	x, _ := synthBatch(r, 32, 3, 24, false)
	p1 := append([]float64(nil), m.Predict(x).Data...)
	for i, v := range m.Predict(x).Data {
		if v != p1[i] {
			t.Fatal("Predict must be deterministic and side-effect free")
		}
	}
}

func TestClassificationPredictProbabilities(t *testing.T) {
	m := New(3, 24, 4, 16, true, 3)
	r := rand.New(rand.NewSource(4))
	opt := nn.NewAdam(0.02)
	for i := 0; i < 200; i++ {
		x, y := synthBatch(r, 64, 3, 24, true)
		m.TrainBatch(x, y, opt)
	}
	x, y := synthBatch(r, 256, 3, 24, true)
	probs := m.Predict(x)
	for _, p := range probs.Data {
		if p < 0 || p > 1 {
			t.Fatalf("probability out of range: %v", p)
		}
	}
	var scores, labels []float64
	scores = append(scores, probs.Data...)
	labels = append(labels, y.Data...)
	if got := auc(scores, labels); got < 0.7 {
		t.Fatalf("AUC = %.3f; model failed to learn", got)
	}
	// Regression predict returns raw values (can exceed [0,1]).
	reg := New(2, 8, 2, 4, false, 5)
	out := reg.Predict(&nn.Matrix{Rows: 1, Cols: 2, Data: []float64{1, 2}})
	if out.Rows != 1 || out.Cols != 1 {
		t.Fatal("regression predict shape wrong")
	}
}

func TestFreezeForIncrementalUpdate(t *testing.T) {
	m := New(3, 24, 4, 16, false, 6)
	m.Freeze(FreezePrefixLayers)
	embFrozen := m.Net.Layers[0].Params()[0].Frozen
	gateFrozen := m.Net.Layers[1].Params()[0].Frozen
	headFrozen := m.Net.Layers[4].Params()[0].Frozen
	if !embFrozen || !gateFrozen {
		t.Fatal("prefix should be frozen")
	}
	if headFrozen {
		t.Fatal("head should be trainable")
	}
	// Training with frozen prefix leaves the embedding unchanged.
	r := rand.New(rand.NewSource(7))
	opt := nn.NewAdam(0.05)
	before := append([]float64(nil), m.Net.Layers[0].Params()[0].W.Data...)
	for i := 0; i < 10; i++ {
		x, y := synthBatch(r, 32, 3, 24, false)
		m.TrainBatch(x, y, opt)
	}
	for i, v := range m.Net.Layers[0].Params()[0].W.Data {
		if v != before[i] {
			t.Fatal("frozen embedding moved")
		}
	}
	m.Freeze(0)
	if m.Net.Layers[0].Params()[0].Frozen {
		t.Fatal("unfreeze failed")
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	m := New(2, 16, 4, 8, false, 8)
	if len(m.Net.Layers) != 5 {
		t.Fatalf("layers = %d", len(m.Net.Layers))
	}
	snap := m.Snapshot()
	x := &nn.Matrix{Rows: 1, Cols: 2, Data: []float64{3, 7}}
	before := m.Predict(x).At(0, 0)
	// Clobber weights, restore, verify output identical.
	for _, l := range m.Net.Layers {
		for _, p := range l.Params() {
			for i := range p.W.Data {
				p.W.Data[i] = 99
			}
		}
	}
	if err := m.Restore(snap); err != nil {
		t.Fatal(err)
	}
	after := m.Predict(x).At(0, 0)
	if before != after {
		t.Fatalf("restore mismatch: %v vs %v", before, after)
	}
}

// gradsAfter runs forward, loss and backward (no optimizer step) on a model
// built by New with the given freeze boundary and returns the model.
func gradsAfter(t *testing.T, freeze int, memo *PrefixMemo, x, y *nn.Matrix) *Model {
	t.Helper()
	m := New(3, 24, 4, 16, false, 9)
	m.Freeze(freeze)
	m.UseMemo(memo)
	for pass := 0; pass < 2; pass++ { // the second pass reads the memo the first filled
		m.ws.Reset()
		for _, p := range m.params {
			p.Grad.Zero()
		}
		_, grad := m.loss(m.forward(x), y)
		m.Net.Backward(grad)
	}
	return m
}

// TestFreezeAwareBackwardMatchesFull: for every freeze boundary of an
// ARM-Net, with and without the memo, the layers that train get the
// gradients of the full backward pass bit for bit and the frozen ones none.
func TestFreezeAwareBackwardMatchesFull(t *testing.T) {
	x, y := synthBatch(rand.New(rand.NewSource(10)), 48, 3, 24, false)
	full := gradsAfter(t, 0, nil, x, y)
	for freeze := 0; freeze <= len(full.Net.Layers); freeze++ {
		for _, memo := range []*PrefixMemo{nil, NewPrefixMemo(PrefixMemoBytes)} {
			m := gradsAfter(t, freeze, memo, x, y)
			if memo != nil && freeze > 0 {
				if hits, _ := memo.Stats(); hits < uint64(x.Rows) {
					t.Fatalf("freeze %d: the second pass hit the memo %d times, want at least %d", freeze, hits, x.Rows)
				}
			}
			for li, l := range m.Net.Layers {
				for pi, p := range l.Params() {
					want := full.Net.Layers[li].Params()[pi].Grad.Data
					for i, g := range p.Grad.Data {
						if li < freeze && g != 0 {
							t.Fatalf("freeze %d: frozen layer %d accumulated a gradient", freeze, li)
						}
						if li >= freeze && g != want[i] {
							t.Fatalf("freeze %d memo %v: layer %d param %d elem %d: %v, full backward %v", freeze, memo != nil, li, pi, i, g, want[i])
						}
					}
				}
			}
		}
	}
}

// TestMemoIsDroppedWhenThePrefixChanges: Restore and Freeze detach the memo,
// and a model whose frozen weights differ never reads another's entries.
func TestMemoIsDroppedWhenThePrefixChanges(t *testing.T) {
	memo := NewPrefixMemo(PrefixMemoBytes)
	x, _ := synthBatch(rand.New(rand.NewSource(11)), 32, 3, 24, false)
	a := New(3, 24, 4, 16, false, 1)
	a.Freeze(FreezePrefixLayers)
	a.UseMemo(memo)
	want := append([]float64(nil), a.Predict(x).Data...)
	b := New(3, 24, 4, 16, false, 2) // other weights, same shapes
	b.Freeze(FreezePrefixLayers)
	plain := append([]float64(nil), b.Predict(x).Data...)
	b.UseMemo(memo)
	for i, v := range b.Predict(x).Data {
		if v != plain[i] {
			t.Fatalf("row %d: %v with the memo, %v without: served another model's activations", i, v, plain[i])
		}
	}
	a.UseMemo(memo)
	for i, v := range a.Predict(x).Data {
		if v != want[i] {
			t.Fatalf("row %d changed after the memo was retargeted and back", i)
		}
	}
	if err := a.Restore(b.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if a.memo != nil {
		t.Fatal("Restore must drop the memo: its key was the old weights' hash")
	}
	a.UseMemo(memo)
	a.Freeze(0)
	if a.memo != nil {
		t.Fatal("Freeze must drop the memo")
	}
}

// TestPrefixMemoBound: the memo never holds more than its bound, empties
// wholesale when it would, and keeps serving correct rows throughout.
func TestPrefixMemoBound(t *testing.T) {
	const limit = 8 << 10
	memo := NewPrefixMemo(limit)
	m := New(3, 96, 8, 32, false, 3)
	m.Freeze(FreezePrefixLayers)
	plain := New(3, 96, 8, 32, false, 3)
	m.UseMemo(memo)
	r := rand.New(rand.NewSource(12))
	emptied := false
	last := 0
	for i := 0; i < 40; i++ {
		x, _ := synthBatch(r, 16, 3, 96, false)
		got, want := m.Predict(x), plain.Predict(x)
		for j := range want.Data {
			if got.Data[j] != want.Data[j] {
				t.Fatalf("batch %d row %d: %v, want %v", i, j, got.Data[j], want.Data[j])
			}
		}
		if memo.size > limit {
			t.Fatalf("memo holds %d bytes, bound %d", memo.size, limit)
		}
		emptied = emptied || memo.n < last
		last = memo.n
	}
	if !emptied {
		t.Fatal("the bound never forced a reset: the test is not exercising it")
	}
}

// fineTuneStep prepares a model, memo and batch shaped like one PREDICT
// fine-tune step: 128 rows, three fields of 32 buckets, 32 hidden units.
func fineTuneStep() (*Model, *PrefixMemo, *nn.Matrix, *nn.Matrix, *nn.Adam) {
	m := New(3, 96, 8, 32, false, 42)
	m.Freeze(FreezePrefixLayers)
	memo := NewPrefixMemo(PrefixMemoBytes)
	m.UseMemo(memo)
	x, y := synthBatch(rand.New(rand.NewSource(13)), 128, 3, 96, false)
	return m, memo, x, y, nn.NewAdam(0.02)
}

// TestHeadStepAllocatesNothing: once the workspace has grown and the memo
// holds the batch's rows, a fine-tune step allocates nothing.
func TestHeadStepAllocatesNothing(t *testing.T) {
	m, _, x, y, opt := fineTuneStep()
	m.TrainBatch(x, y, opt)
	if allocs := testing.AllocsPerRun(20, func() { m.TrainBatch(x, y, opt) }); allocs != 0 {
		t.Fatalf("steady-state head step allocates %v times", allocs)
	}
}

var sinkLoss float64

// BenchmarkFineTuneStep times one 128-row fine-tune step: on memo hits it is
// the head alone; on misses the frozen prefix is computed first.
func BenchmarkFineTuneStep(b *testing.B) {
	b.Run("memo=hit", func(b *testing.B) {
		m, _, x, y, opt := fineTuneStep()
		m.TrainBatch(x, y, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkLoss = m.TrainBatch(x, y, opt)
		}
	})
	b.Run("memo=miss", func(b *testing.B) {
		m, memo, x, y, opt := fineTuneStep()
		m.TrainBatch(x, y, opt)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			memo.mu.Lock()
			memo.empty()
			memo.mu.Unlock()
			sinkLoss = m.TrainBatch(x, y, opt)
		}
	})
}

// auc is the area under the ROC curve of scores for binary labels: the share
// of (positive, negative) pairs the scores order correctly, a tie counting
// half. It is 0.5 when either class is absent.
func auc(scores, labels []float64) float64 {
	var right, pairs float64
	for i, pos := range scores {
		if labels[i] < 0.5 {
			continue
		}
		for j, neg := range scores {
			if labels[j] >= 0.5 {
				continue
			}
			pairs++
			switch {
			case pos > neg:
				right++
			case pos == neg:
				right += 0.5
			}
		}
	}
	if pairs == 0 {
		return 0.5
	}
	return right / pairs
}

func TestAUC(t *testing.T) {
	// Perfect separation.
	if got := auc([]float64{0.9, 0.8, 0.2, 0.1}, []float64{1, 1, 0, 0}); math.Abs(got-1) > 1e-9 {
		t.Fatalf("perfect AUC = %v", got)
	}
	// Inverted.
	if got := auc([]float64{0.1, 0.2, 0.8, 0.9}, []float64{1, 1, 0, 0}); math.Abs(got) > 1e-9 {
		t.Fatalf("inverted AUC = %v", got)
	}
	// All ties → 0.5.
	if got := auc([]float64{0.5, 0.5, 0.5, 0.5}, []float64{1, 0, 1, 0}); math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("tied AUC = %v", got)
	}
	// Degenerate single-class input.
	if got := auc([]float64{0.5, 0.6}, []float64{1, 1}); got != 0.5 {
		t.Fatalf("single-class AUC = %v", got)
	}
}
