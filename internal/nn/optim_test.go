package nn

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// quadratic target: minimize 0.5*||w - w*||² — gradients are (w - w*).
func quadGrad(p *Param, target []float64) {
	for i := range p.W.Data {
		p.Grad.Data[i] = p.W.Data[i] - target[i]
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	p := NewParam("w", fromRows([][]float64{{5, -4, 2}}))
	target := []float64{1, 2, 3}
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		opt.ZeroGrad([]*Param{p})
		quadGrad(p, target)
		opt.Step([]*Param{p})
	}
	for i, want := range target {
		if math.Abs(p.W.Data[i]-want) > 1e-3 {
			t.Fatalf("Adam did not converge: got %v", p.W.Data)
		}
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	p1 := NewParam("w1", fromRows([][]float64{{5}}))
	p2 := NewParam("w2", fromRows([][]float64{{5}}))
	p2.Frozen = true
	opt := NewAdam(0.1)
	for i := 0; i < 10; i++ {
		opt.ZeroGrad([]*Param{p1, p2})
		quadGrad(p1, []float64{0})
		quadGrad(p2, []float64{0})
		opt.Step([]*Param{p1, p2})
	}
	if p1.W.Data[0] == 5 {
		t.Fatal("unfrozen parameter should move")
	}
	if p2.W.Data[0] != 5 {
		t.Fatal("frozen parameter must not move")
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	a := NewAdam(0.1)
	a.WeightDecay = 0.5
	q := NewParam("w", fromRows([][]float64{{10}}))
	a.ZeroGrad([]*Param{q})
	// zero task gradient: only decay applies
	a.Step([]*Param{q})
	if q.W.Data[0] >= 10 {
		t.Fatal("adam weight decay should shrink the weight")
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", NewMatrix(1, 2))
	p.Grad.Data[0], p.Grad.Data[1] = 3, 4 // norm 5
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-9 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	var after float64
	for _, g := range p.Grad.Data {
		after += g * g
	}
	if math.Abs(math.Sqrt(after)-1) > 1e-9 {
		t.Fatalf("post-clip norm = %v, want 1", math.Sqrt(after))
	}
	// Below threshold: untouched.
	p.Grad.Data[0], p.Grad.Data[1] = 0.3, 0.4
	ClipGradNorm([]*Param{p}, 1)
	if p.Grad.Data[0] != 0.3 {
		t.Fatal("small gradients must not be rescaled")
	}
}

func TestFreezeUpTo(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	seq := NewSequential(NewLinear(2, 4, r), &ReLU{}, NewLinear(4, 1, r))
	seq.FreezeUpTo(2)
	if !seq.Layers[0].Params()[0].Frozen {
		t.Fatal("prefix layer should be frozen")
	}
	if seq.Layers[2].Params()[0].Frozen {
		t.Fatal("tail layer should be trainable")
	}
	seq.FreezeUpTo(0)
	if seq.Layers[0].Params()[0].Frozen {
		t.Fatal("unfreeze failed")
	}
}

func TestXORTrainingEndToEnd(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	model := NewSequential(
		NewLinear(2, 8, r),
		&ReLU{},
		NewLinear(8, 1, r),
	)
	x := fromRows([][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}})
	y := fromRows([][]float64{{0}, {1}, {1}, {0}})
	opt := NewAdam(0.05)
	var loss float64
	for i := 0; i < 800; i++ {
		opt.ZeroGrad(model.Params())
		logits := model.Forward(x)
		grad := NewMatrix(logits.Rows, logits.Cols)
		loss = BCEWithLogitsLossInto(grad, logits, y)
		model.Backward(grad)
		opt.Step(model.Params())
	}
	if loss > 0.1 {
		t.Fatalf("XOR training did not converge: loss=%v", loss)
	}
	for i, logit := range model.Forward(x).Data {
		if (logit >= 0) != (y.Data[i] == 1) {
			t.Fatalf("XOR input %d: logit %v for target %v", i, logit, y.Data[i])
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	seq := NewSequential(NewLinear(3, 5, r), &ReLU{}, NewLinear(5, 2, r))
	snap := SnapshotSequential(seq)
	if len(snap) != 3 {
		t.Fatalf("snapshot layer count = %d", len(snap))
	}
	// Round-trip through bytes.
	blob, err := EncodeWeights(snap[0])
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeWeights(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, snap[0]) || len(back.Datas) == 0 {
		t.Fatal("layer snapshot changed in the round trip")
	}
	// Mutate, restore, compare.
	orig := seq.Layers[0].Params()[0].W.clone()
	for i := range seq.Layers[0].Params()[0].W.Data {
		seq.Layers[0].Params()[0].W.Data[i] = 99
	}
	if err := RestoreSequential(seq, snap); err != nil {
		t.Fatal(err)
	}
	for i := range orig.Data {
		if seq.Layers[0].Params()[0].W.Data[i] != orig.Data[i] {
			t.Fatal("restore did not recover original weights")
		}
	}
	// Error paths.
	if err := RestoreSequential(seq, snap[:1]); err == nil {
		t.Fatal("layer-count mismatch should error")
	}
	bad := snap[0]
	bad.Shapes = [][2]int{{1, 1}, {1, 1}}
	bad.Datas = [][]float64{{0}, {0}}
	if err := RestoreParams(bad, seq.Layers[0].Params()); err == nil {
		t.Fatal("shape mismatch should error")
	}
	if _, err := DecodeWeights([]byte("garbage")); err == nil {
		t.Fatal("garbage decode should error")
	}
}

// TestClipGradNormIgnoresFrozen is the regression test for frozen gradients
// throttling a fine-tune: a frozen parameter's gradient is never applied, so
// it must neither count towards the norm nor be rescaled.
func TestClipGradNormIgnoresFrozen(t *testing.T) {
	frozen := NewParam("frozen", NewMatrix(1, 2))
	frozen.Frozen = true
	frozen.Grad.Data[0], frozen.Grad.Data[1] = 300, 400 // norm 500 ≫ 5
	live := NewParam("live", NewMatrix(1, 2))
	live.Grad.Data[0], live.Grad.Data[1] = 0.3, 0.4 // norm 0.5 < 5
	norm := ClipGradNorm([]*Param{frozen, live}, 5)
	if math.Abs(norm-0.5) > 1e-12 {
		t.Fatalf("norm = %v, want the trainable parameters' 0.5", norm)
	}
	if live.Grad.Data[0] != 0.3 || live.Grad.Data[1] != 0.4 {
		t.Fatalf("trainable gradient rescaled to %v by a frozen parameter's norm", live.Grad.Data)
	}
	if frozen.Grad.Data[0] != 300 {
		t.Fatal("frozen gradient must be left alone")
	}
}

// TestSequentialBackwardStopsAtFrozenPrefix: for every freeze boundary, the
// gradients of the layers that still train are bit-identical to those of the
// full backward pass, frozen layers accumulate nothing, and backward above a
// frozen prefix returns no input gradient.
func TestSequentialBackwardStopsAtFrozenPrefix(t *testing.T) {
	build := func() *Sequential {
		r := rand.New(rand.NewSource(31))
		return NewSequential(NewLinear(3, 6, r), &ReLU{}, NewLinear(6, 5, r), &ReLU{}, NewLinear(5, 2, r))
	}
	r := rand.New(rand.NewSource(32))
	x, dy := Randn(7, 3, 1, r), Randn(7, 2, 1, r)
	full := build()
	full.Forward(x)
	if dx := full.Backward(dy); dx == nil || dx.Rows != 7 || dx.Cols != 3 {
		t.Fatal("unfrozen backward must return the input gradient")
	}
	for n := 1; n <= len(full.Layers)+1; n++ {
		seq := build()
		seq.FreezeUpTo(n)
		if want := min(n, len(seq.Layers)); seq.Frozen() != want {
			t.Fatalf("FreezeUpTo(%d): Frozen() = %d, want %d", n, seq.Frozen(), want)
		}
		seq.Forward(x)
		if dx := seq.Backward(dy); dx != nil {
			t.Fatalf("freeze %d: backward returned an input gradient", n)
		}
		for li, l := range seq.Layers {
			for pi, p := range l.Params() {
				want := full.Layers[li].Params()[pi].Grad.Data
				for i, g := range p.Grad.Data {
					if li < n && g != 0 {
						t.Fatalf("freeze %d: frozen layer %d accumulated a gradient", n, li)
					}
					if li >= n && g != want[i] {
						t.Fatalf("freeze %d: layer %d param %d elem %d: %v, full backward %v", n, li, pi, i, g, want[i])
					}
				}
			}
		}
	}
}
