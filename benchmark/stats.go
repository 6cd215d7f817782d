package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail estimated from fewer is one slow operation's latency, not
// a property of the system. p95 therefore needs 200 samples, p99 1000.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of an
// ascending slice, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, p float64) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := min(max(int(math.Ceil(p*float64(n)))-1, 0), n-1)
	return sorted[idx], n-1-idx >= minBeyond
}

// median returns the middle value (mean of the middle two for even counts),
// or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), so that -compare
// reproduces the acceptance check made on this benchmark. It needs at least
// two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// relSpread is the run-to-run spread -compare holds against a metric's bound,
// as a share of the median: the distance between the quartiles when there are
// at least four runs, max - min for fewer (where one disturbed run shows in
// full). It is 0 when the median is 0.
func relSpread(xs []float64) float64 {
	m := median(xs)
	if m == 0 || len(xs) < 2 {
		return 0
	}
	lo, hi := slices.Min(xs), slices.Max(xs)
	if len(xs) >= 4 {
		lo, hi = quartiles(xs)
	}
	return (hi - lo) / math.Abs(m)
}
