package cc

import (
	"math"
	"testing"
)

func TestOptimizerFindsQuadraticOptimum(t *testing.T) {
	// Maximize -(x-0.7)² - (y+0.3)² over [-1,1]²; optimum at (0.7, -0.3).
	opt := newBayesOpt([]searchParam{{Name: "x", Lo: -1, Hi: 1}, {Name: "y", Lo: -1, Hi: 1}}, 42)
	obj := func(x []float64) float64 {
		return -(x[0]-0.7)*(x[0]-0.7) - (x[1]+0.3)*(x[1]+0.3)
	}
	for i := 0; i < 120; i++ {
		x := opt.Suggest()
		opt.Observe(x, obj(x))
	}
	best, y := opt.Best()
	if y < -0.05 {
		t.Fatalf("best objective %.4f at %v; TPE failed to localize optimum", y, best)
	}
	if math.Abs(best[0]-0.7) > 0.25 || math.Abs(best[1]+0.3) > 0.25 {
		t.Fatalf("best point %v far from optimum", best)
	}
	if opt.History() != 120 {
		t.Fatalf("history = %d", opt.History())
	}
}

func TestOptimizerBeatsRandomSearch(t *testing.T) {
	// On a narrow peak, TPE should find better points than pure random with
	// the same budget (deterministic seeds make this stable).
	obj := func(x []float64) float64 {
		return -math.Abs(x[0]-0.42)*10 - math.Abs(x[1]-0.13)*10
	}
	params := []searchParam{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}

	tpe := newBayesOpt(params, 7)
	for i := 0; i < 80; i++ {
		x := tpe.Suggest()
		tpe.Observe(x, obj(x))
	}
	_, tpeBest := tpe.Best()

	random := newBayesOpt(params, 7)
	random.Explore = 1.0 // force uniform sampling
	for i := 0; i < 80; i++ {
		x := random.Suggest()
		random.Observe(x, obj(x))
	}
	_, rndBest := random.Best()

	if tpeBest < rndBest-0.2 {
		t.Fatalf("TPE (%.3f) should not trail random (%.3f) badly", tpeBest, rndBest)
	}
}

func TestSuggestionsStayInBounds(t *testing.T) {
	opt := newBayesOpt([]searchParam{{Lo: 2, Hi: 3}, {Lo: -5, Hi: -4}}, 1)
	for i := 0; i < 60; i++ {
		x := opt.Suggest()
		if x[0] < 2 || x[0] > 3 || x[1] < -5 || x[1] > -4 {
			t.Fatalf("suggestion out of bounds: %v", x)
		}
		opt.Observe(x, -x[0]*x[1])
	}
}

func TestBestOnEmpty(t *testing.T) {
	opt := newBayesOpt([]searchParam{{Lo: 0, Hi: 1}}, 1)
	x, y := opt.Best()
	if x != nil || !math.IsInf(y, -1) {
		t.Fatal("empty best should be -inf")
	}
}
