package cc

import (
	"math"
	"math/rand"
)

// YCSB generates the paper's micro-benchmark transactions: 5 selects and 5
// updates per transaction over a table of Records rows, with Zipfian key
// skew (Cooper et al., SoCC'10). Keys within a transaction are distinct.
type YCSB struct {
	Records int
	Theta   float64 // Zipfian skew (0 = uniform; 0.99 = standard hot-spot)
	zeta    float64 // precomputed zeta(Records, Theta)
	zeta2   float64
	alpha   float64
	eta     float64
}

// NewYCSB creates a generator over n records with the given skew.
func NewYCSB(n int, theta float64) *YCSB {
	y := &YCSB{Records: n, Theta: theta}
	if theta > 0 {
		y.zeta = zetaStatic(n, theta)
		y.zeta2 = zetaStatic(2, theta)
		y.alpha = 1 / (1 - theta)
		y.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - y.zeta2/y.zeta)
	}
	return y
}

// zetaStatic computes the generalized harmonic number.
func zetaStatic(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Key draws one Zipfian-distributed key in [0, Records).
func (y *YCSB) Key(r *rand.Rand) int {
	if y.Theta <= 0 {
		return r.Intn(y.Records)
	}
	u := r.Float64()
	uz := u * y.zeta
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, y.Theta) {
		return 1
	}
	return int(float64(y.Records) * math.Pow(y.eta*u-y.eta+1, y.alpha))
}

// Generate implements Generator: 5 reads + 5 writes on distinct keys.
func (y *YCSB) Generate(r *rand.Rand, txn *Txn) {
	txn.Type = 0
	txn.Ops = txn.Ops[:0]
	seen := make(map[int]bool, 10)
	pick := func() int {
		for {
			k := y.Key(r)
			if k >= y.Records {
				k = y.Records - 1
			}
			if !seen[k] {
				seen[k] = true
				return k
			}
		}
	}
	for i := 0; i < 5; i++ {
		txn.Ops = append(txn.Ops, Op{Key: pick(), Write: false})
	}
	for i := 0; i < 5; i++ {
		txn.Ops = append(txn.Ops, Op{Key: pick(), Write: true, Delta: 1})
	}
}
