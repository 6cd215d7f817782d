package nn

import "math"

// Adam is the Adam optimizer (Kingma & Ba). Step skips frozen parameters,
// which implements the incremental-update contract.
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

// Step updates the trainable parameters from their accumulated gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	b1, b2, lr, eps, wd := o.Beta1, o.Beta2, o.LR, o.Eps, o.WeightDecay
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
		w := p.W.Data
		gs, ms, vs := p.Grad.Data[:len(w)], m.Data[:len(w)], v.Data[:len(w)]
		for i, wi := range w {
			g := gs[i]
			if wd != 0 {
				g += float64(wd * wi)
			}
			ms[i] = float64(b1*ms[i]) + float64((1-b1)*g)
			vs[i] = float64(b2*vs[i]) + float64((1-b2)*g*g)
			mHat := ms[i] / bc1
			vHat := vs[i] / bc2
			w[i] = wi - lr*mHat/(math.Sqrt(vHat)+eps)
		}
	}
}

// ZeroGrad clears the parameters' gradients.
func (o *Adam) ZeroGrad(params []*Param) {
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
			total += float64(g * g)
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
