// Package workload provides the datasets of the paper's AI and optimizer
// experiments, rebuilt as deterministic synthetic generators: an Avazu-style
// CTR stream with five drift clusters (Workload E), a Diabetes-style
// classification set (Workload H), and a STATS-style 8-table join schema
// with drift for the optimizer experiments. The YCSB and TPC-C generators of
// the CC experiments live with the testbed they drive, in internal/bench/cc.
package workload

import (
	"math"
	"math/rand"

	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// AvazuFields is the attribute count of the Avazu CTR dataset (paper: 22).
const AvazuFields = 22

// AvazuVocab is the per-field categorical vocabulary.
const AvazuVocab = 64

// AvazuClusters is the number of drift clusters C1..C5 (paper §5.1).
const AvazuClusters = 5

// Avazu generates an Avazu-like CTR stream. Each cluster has its own
// per-field categorical distribution and its own logistic label function, so
// switching clusters drifts both the feature and the label distribution —
// the protocol behind Fig. 6(c).
type Avazu struct {
	weights [AvazuClusters][AvazuFields]float64 // logistic weights per cluster
	bias    [AvazuClusters]float64
	skew    [AvazuClusters][AvazuFields]float64 // per-field zipf-ish skew
	rng     *rand.Rand
	cluster int
}

// NewAvazu creates a deterministic generator.
func NewAvazu(seed int64) *Avazu {
	a := &Avazu{rng: rand.New(rand.NewSource(seed))}
	setup := rand.New(rand.NewSource(seed * 7919))
	for c := 0; c < AvazuClusters; c++ {
		for f := 0; f < AvazuFields; f++ {
			a.weights[c][f] = setup.NormFloat64() * 1.2
			a.skew[c][f] = 0.5 + setup.Float64()*1.5
		}
		a.bias[c] = setup.NormFloat64() * 0.3
	}
	return a
}

// SetCluster switches the active data cluster (simulating data drift).
func (a *Avazu) SetCluster(c int) { a.cluster = c % AvazuClusters }

// Cluster returns the active cluster.
func (a *Avazu) Cluster() int { return a.cluster }

// sampleID draws a field value with cluster-specific skew.
func (a *Avazu) sampleID(r *rand.Rand, c, f int) int {
	// Power-law-ish: id = vocab * u^skew, clusters permute by offset.
	u := math.Pow(r.Float64(), a.skew[c][f])
	id := int(u * AvazuVocab)
	if id >= AvazuVocab {
		id = AvazuVocab - 1
	}
	// Cluster-specific rotation decorrelates clusters' hot ids.
	return (id + c*13) % AvazuVocab
}

// Row generates one record: 22 categorical attributes plus the click_rate
// label in [0,1].
func (a *Avazu) Row() rel.Row {
	return a.RowFrom(a.rng, a.cluster)
}

// RowFrom generates one record from an explicit RNG and cluster.
func (a *Avazu) RowFrom(r *rand.Rand, c int) rel.Row {
	row := make(rel.Row, AvazuFields+1)
	z := a.bias[c]
	for f := 0; f < AvazuFields; f++ {
		id := a.sampleID(r, c, f)
		row[f] = rel.Int(int64(id))
		// Feature contribution: normalized id interacts with cluster weight.
		z += a.weights[c][f] * (float64(id)/AvazuVocab - 0.5)
	}
	rate := 1 / (1 + math.Exp(-z))
	row[AvazuFields] = rel.Float(rate)
	return row
}

// Batch generates n records from the active cluster.
func (a *Avazu) Batch(n int) []rel.Row {
	out := make([]rel.Row, n)
	for i := range out {
		out[i] = a.Row()
	}
	return out
}

// BatchSource streams the generator's rows in batches:
// totalBatches batches of batchSize records, switching clusters every
// switchEvery samples (0 = never switch).
type BatchSource struct {
	gen         *Avazu
	batchSize   int
	remaining   int
	switchEvery int
	emitted     int
}

// NewBatchSource creates a finite streaming source over the generator.
func (a *Avazu) NewBatchSource(batchSize, totalBatches, switchEvery int) *BatchSource {
	return &BatchSource{gen: a, batchSize: batchSize, remaining: totalBatches, switchEvery: switchEvery}
}

// Next returns the next batch of rows, or ok=false when exhausted.
func (s *BatchSource) Next() ([]rel.Row, bool) {
	if s.remaining <= 0 {
		return nil, false
	}
	s.remaining--
	if s.switchEvery > 0 {
		cluster := (s.emitted / s.switchEvery) % AvazuClusters
		s.gen.SetCluster(cluster)
	}
	s.emitted += s.batchSize
	return s.gen.Batch(s.batchSize), true
}

// AvazuFeaturizer converts Avazu rows to ARM-Net inputs: per-field global
// ids (field*vocab + id) and the click_rate label.
func AvazuFeaturizer(rows []rel.Row) (*nn.Matrix, *nn.Matrix) {
	x := nn.NewMatrix(len(rows), AvazuFields)
	y := nn.NewMatrix(len(rows), 1)
	for i, row := range rows {
		for f := 0; f < AvazuFields; f++ {
			id := int(row[f].AsInt())
			if id < 0 {
				id = 0
			}
			if id >= AvazuVocab {
				id = AvazuVocab - 1
			}
			x.Set(i, f, float64(f*AvazuVocab+id))
		}
		y.Set(i, 0, row[AvazuFields].AsFloat())
	}
	return x, y
}

// AvazuTotalVocab is the embedding vocabulary for the Avazu featurizer.
const AvazuTotalVocab = AvazuFields * AvazuVocab
