package cc

// A small Bayesian optimizer in the TPE (tree-structured Parzen estimator)
// style. Its one user is the filtering phase of the Adapter's two-phase
// adaptation, which generates candidate decision models with it.

import (
	"math"
	"math/rand"
	"sort"
)

// searchParam is one continuous search dimension.
type searchParam struct {
	Name   string
	Lo, Hi float64
}

type observation struct {
	x []float64
	y float64
}

// bayesOpt maximizes an objective over a box domain.
type bayesOpt struct {
	Params []searchParam
	// Gamma is the quantile split between "good" and "bad" observations.
	Gamma float64
	// Candidates is the number of TPE proposals scored per Suggest.
	Candidates int
	// Explore is the probability of a uniform random suggestion.
	Explore float64

	rng  *rand.Rand
	hist []observation
}

// newBayesOpt creates an optimizer over the given parameters.
func newBayesOpt(params []searchParam, seed int64) *bayesOpt {
	return &bayesOpt{
		Params:     params,
		Gamma:      0.25,
		Candidates: 24,
		Explore:    0.15,
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// uniform samples the box uniformly.
func (o *bayesOpt) uniform() []float64 {
	x := make([]float64, len(o.Params))
	for i, p := range o.Params {
		x[i] = p.Lo + o.rng.Float64()*(p.Hi-p.Lo)
	}
	return x
}

// Suggest proposes the next point to evaluate.
func (o *bayesOpt) Suggest() []float64 {
	if len(o.hist) < 4 || o.rng.Float64() < o.Explore {
		return o.uniform()
	}
	// Split history into good (top gamma fraction) and bad.
	sorted := append([]observation(nil), o.hist...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].y > sorted[j].y })
	nGood := int(math.Ceil(o.Gamma * float64(len(sorted))))
	if nGood < 1 {
		nGood = 1
	}
	good := sorted[:nGood]
	bad := sorted[nGood:]

	bestScore := math.Inf(-1)
	var best []float64
	for c := 0; c < o.Candidates; c++ {
		// Sample around a random good point (Parzen window).
		seedPt := good[o.rng.Intn(len(good))]
		x := make([]float64, len(o.Params))
		for i, p := range o.Params {
			width := (p.Hi - p.Lo) * 0.15
			v := seedPt.x[i] + o.rng.NormFloat64()*width
			if v < p.Lo {
				v = p.Lo
			}
			if v > p.Hi {
				v = p.Hi
			}
			x[i] = v
		}
		score := o.density(good, x) / (o.density(bad, x) + 1e-9)
		if score > bestScore {
			bestScore = score
			best = x
		}
	}
	return best
}

// density is a Parzen-window (Gaussian KDE) estimate over a point set.
func (o *bayesOpt) density(obs []observation, x []float64) float64 {
	if len(obs) == 0 {
		return 1e-9
	}
	var total float64
	for _, ob := range obs {
		var d2 float64
		for i, p := range o.Params {
			width := (p.Hi - p.Lo) * 0.2
			if width <= 0 {
				width = 1
			}
			d := (x[i] - ob.x[i]) / width
			d2 += d * d
		}
		total += math.Exp(-0.5 * d2)
	}
	return total / float64(len(obs))
}

// Observe records the objective value at x (higher is better).
func (o *bayesOpt) Observe(x []float64, y float64) {
	cp := append([]float64(nil), x...)
	o.hist = append(o.hist, observation{x: cp, y: y})
}

// Best returns the best observed point and value.
func (o *bayesOpt) Best() ([]float64, float64) {
	if len(o.hist) == 0 {
		return nil, math.Inf(-1)
	}
	best := o.hist[0]
	for _, ob := range o.hist[1:] {
		if ob.y > best.y {
			best = ob
		}
	}
	return append([]float64(nil), best.x...), best.y
}

// History returns the number of observations so far.
func (o *bayesOpt) History() int { return len(o.hist) }
