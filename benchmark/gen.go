package main

import (
	"math"
	"math/rand/v2"
)

// mix hashes (seed, x) to 64 well-spread bits (the splitmix64 finalizer).
// Every generated column value is a function of mix, so a checker can
// recompute the value a key must hold without storing the table.
func mix(seed int64, x uint64) uint64 {
	z := uint64(seed) + (x+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// newRNG returns the generator for one stream of one seed: each worker and
// each sampling decision draws from its own stream, so tracing a run does not
// change the operations it executes.
func newRNG(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// zipf draws ranks in [0, n) with P(rank i) proportional to 1/(i+1)^theta,
// for theta in (0, 1) — the range math/rand's Zipf (s > 1) does not cover.
// It is the closed-form sampler of Gray et al., "Quickly generating
// billion-record synthetic databases" (the one YCSB uses).
type zipf struct {
	n                 int
	theta, alpha, eta float64
	zetan, half       float64
}

func newZipf(n int, theta float64) *zipf {
	zeta := func(m int) float64 {
		s := 0.0
		for i := 1; i <= m; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	z := &zipf{n: n, theta: theta, alpha: 1 / (1 - theta), zetan: zeta(n), half: math.Pow(0.5, theta)}
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - zeta(2)/z.zetan)
	return z
}

// rank maps a uniform u in [0, 1) to a rank; rank 0 is the most popular.
func (z *zipf) rank(u float64) int {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < 1+z.half {
		return 1
	}
	r := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	return min(r, z.n-1)
}

// scramblePrime is coprime to every table size the benchmark uses (sizes are
// of the form 2^a * 5^b * k with k < scramblePrime), so scramble is a
// bijection on [0, n).
const scramblePrime = 1_000_003

// scramble spreads popularity ranks over the key space, so that hot keys do
// not all sit on the first heap pages.
func scramble(rank, n int) int {
	return int(uint64(rank) * scramblePrime % uint64(n))
}
