package nn

import "math"

// Optimizer updates parameters from accumulated gradients. Frozen parameters
// are always skipped, which implements the incremental-update contract.
type Optimizer interface {
	Step(params []*Param)
	ZeroGrad(params []*Param)
}

// Adam is the Adam optimizer (Kingma & Ba).
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	WeightDecay           float64
	t                     int
	m, v                  map[*Param]*Matrix
}

// NewAdam creates an Adam optimizer with standard defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*Matrix), v: make(map[*Param]*Matrix),
	}
}

// Step implements Optimizer.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		if p.Frozen {
			continue
		}
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = NewMatrix(p.W.Rows, p.W.Cols)
			v = NewMatrix(p.W.Rows, p.W.Cols)
			o.m[p], o.v[p] = m, v
		}
		for i := range p.W.Data {
			g := p.Grad.Data[i]
			if o.WeightDecay != 0 {
				g += o.WeightDecay * p.W.Data[i]
			}
			m.Data[i] = o.Beta1*m.Data[i] + (1-o.Beta1)*g
			v.Data[i] = o.Beta2*v.Data[i] + (1-o.Beta2)*g*g
			mHat := m.Data[i] / bc1
			vHat := v.Data[i] / bc2
			p.W.Data[i] -= o.LR * mHat / (math.Sqrt(vHat) + o.Eps)
		}
	}
}

// ZeroGrad implements Optimizer.
func (o *Adam) ZeroGrad(params []*Param) { zeroGrads(params) }

func zeroGrads(params []*Param) {
	for _, p := range params {
		p.Grad.Zero()
	}
}

// ClipGradNorm rescales the gradients of the trainable parameters so their
// global L2 norm is at most max, and returns the pre-clip norm. Frozen
// parameters are left out of both: a gradient no step applies must not
// shrink the step of the parameters that do move.
func ClipGradNorm(params []*Param, max float64) float64 {
	var total float64
	for _, p := range params {
		if p.Frozen {
			continue
		}
		for _, g := range p.Grad.Data {
			total += g * g
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		s := max / norm
		for _, p := range params {
			if p.Frozen {
				continue
			}
			for i := range p.Grad.Data {
				p.Grad.Data[i] *= s
			}
		}
	}
	return norm
}
