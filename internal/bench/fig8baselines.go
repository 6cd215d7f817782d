package bench

import (
	"math"
	"math/rand"

	"neurdb/internal/nn"
	"neurdb/internal/plan"
)

// planFeatureDim is the pooled plan-feature width used by the Bao value
// network and the Lero comparator: mean token + root estimates + size.
const planFeatureDim = plan.NodeFeatureDim + 3

// PlanFeatures pools a plan into a fixed-width vector.
func PlanFeatures(p plan.Node) []float64 {
	toks := plan.EncodeTree(p)
	out := make([]float64, planFeatureDim)
	for _, t := range toks {
		for i, v := range t {
			out[i] += v
		}
	}
	n := float64(len(toks))
	if n > 0 {
		for i := 0; i < plan.NodeFeatureDim; i++ {
			out[i] /= n
		}
	}
	rows, cost := p.Estimates()
	out[plan.NodeFeatureDim] = math.Log1p(rows) / 20
	out[plan.NodeFeatureDim+1] = math.Log1p(cost) / 20
	out[plan.NodeFeatureDim+2] = n / 16
	return out
}

// Bao is the hint-set bandit baseline with a "stable" (frozen after
// pre-training) value network predicting log runtime from plan features.
// Critically, it sees no system-condition tokens — under drift its value
// model keeps scoring plans as if the old data distribution still held.
type Bao struct {
	value  *nn.Sequential
	frozen bool
}

// NewBao builds the value network.
func NewBao(seed int64) *Bao {
	r := rand.New(rand.NewSource(seed))
	return &Bao{
		value: nn.NewSequential(
			nn.NewLinear(planFeatureDim, 32, r),
			&nn.ReLU{},
			nn.NewLinear(32, 16, r),
			&nn.ReLU{},
			nn.NewLinear(16, 1, r),
		),
	}
}

// PredictRuntime returns the predicted log1p(runtime) for a plan.
func (b *Bao) PredictRuntime(p plan.Node) float64 {
	x := nn.FromRows([][]float64{PlanFeatures(p)})
	return b.value.Forward(x).At(0, 0)
}

// Choose picks the candidate with the lowest predicted runtime.
func (b *Bao) Choose(cands []plan.Node) int {
	best, bestV := 0, math.Inf(1)
	for i, c := range cands {
		v := b.PredictRuntime(c)
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

// Train fits the value network on (plan, runtimeSeconds) observations. Once
// Freeze is called (the paper evaluates Bao's "stable model"), training
// becomes a no-op.
func (b *Bao) Train(p plan.Node, runtimeSeconds float64, opt nn.Optimizer) float64 {
	if b.frozen {
		return 0
	}
	x := nn.FromRows([][]float64{PlanFeatures(p)})
	target := nn.FromRows([][]float64{{math.Log1p(runtimeSeconds * 1000)}})
	opt.ZeroGrad(b.value.Params())
	pred := b.value.Forward(x)
	loss, grad := nn.MSELoss(pred, target)
	b.value.Backward(grad)
	opt.Step(b.value.Params())
	return loss
}

// Freeze pins the model (stable-model evaluation protocol).
func (b *Bao) Freeze() { b.frozen = true }

// Lero is the learning-to-rank baseline: a pairwise comparator over plan
// features. Like Bao it is evaluated with a stable (frozen) model and has
// no system-condition input.
type Lero struct {
	comparator *nn.Sequential
	frozen     bool
}

// NewLero builds the comparator network.
func NewLero(seed int64) *Lero {
	r := rand.New(rand.NewSource(seed))
	return &Lero{
		comparator: nn.NewSequential(
			nn.NewLinear(2*planFeatureDim, 32, r),
			&nn.ReLU{},
			nn.NewLinear(32, 1, r),
		),
	}
}

// prefer returns a logit > 0 when plan a is predicted faster than plan b.
func (l *Lero) prefer(a, b plan.Node) float64 {
	fa, fb := PlanFeatures(a), PlanFeatures(b)
	x := nn.FromRows([][]float64{append(append([]float64{}, fa...), fb...)})
	return l.comparator.Forward(x).At(0, 0)
}

// Choose runs a linear tournament with the pairwise comparator.
func (l *Lero) Choose(cands []plan.Node) int {
	best := 0
	for i := 1; i < len(cands); i++ {
		if l.prefer(cands[i], cands[best]) > 0 {
			best = i
		}
	}
	return best
}

// TrainPair teaches the comparator that `faster` beat `slower`. Both
// orderings are trained for antisymmetry.
func (l *Lero) TrainPair(faster, slower plan.Node, opt nn.Optimizer) float64 {
	if l.frozen {
		return 0
	}
	ff, fs := PlanFeatures(faster), PlanFeatures(slower)
	x1 := nn.FromRows([][]float64{append(append([]float64{}, ff...), fs...)})
	x2 := nn.FromRows([][]float64{append(append([]float64{}, fs...), ff...)})
	y1 := nn.FromRows([][]float64{{1}})
	y2 := nn.FromRows([][]float64{{0}})
	var total float64
	for i, pair := range []struct {
		x, y *nn.Matrix
	}{{x1, y1}, {x2, y2}} {
		_ = i
		opt.ZeroGrad(l.comparator.Params())
		logits := l.comparator.Forward(pair.x)
		loss, grad := nn.BCEWithLogitsLoss(logits, pair.y)
		l.comparator.Backward(grad)
		opt.Step(l.comparator.Params())
		total += loss
	}
	return total / 2
}

// Freeze pins the model.
func (l *Lero) Freeze() { l.frozen = true }
