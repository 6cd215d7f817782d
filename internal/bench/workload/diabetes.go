package workload

import (
	"math"
	"math/rand"

	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// DiabetesFields is the attribute count of the scaled UCI Diabetes dataset
// the paper uses (~43 attributes).
const DiabetesFields = 43

// DiabetesBuckets is the per-field bucketization granularity for ARM-Net.
const DiabetesBuckets = 32

// Diabetes generates a diabetes-progression-style classification workload
// (Workload H): 43 numeric attributes with a sparse logistic ground truth
// for the binary `outcome` label.
type Diabetes struct {
	weights [DiabetesFields]float64
	bias    float64
	rng     *rand.Rand
}

// NewDiabetes creates a deterministic generator.
func NewDiabetes(seed int64) *Diabetes {
	d := &Diabetes{rng: rand.New(rand.NewSource(seed))}
	setup := rand.New(rand.NewSource(seed * 104729))
	for f := range d.weights {
		// Sparse signal: a third of the attributes carry most information.
		if setup.Intn(3) == 0 {
			d.weights[f] = setup.NormFloat64() * 2
		} else {
			d.weights[f] = setup.NormFloat64() * 0.2
		}
	}
	d.bias = -0.1
	return d
}

// Row generates one record: 43 float attributes in [0, 1] plus the binary
// outcome.
func (d *Diabetes) Row() rel.Row {
	row := make(rel.Row, DiabetesFields+1)
	z := d.bias
	for f := 0; f < DiabetesFields; f++ {
		v := d.rng.Float64()
		row[f] = rel.Float(v)
		z += d.weights[f] * (v - 0.5)
	}
	p := 1 / (1 + math.Exp(-z))
	outcome := int64(0)
	if d.rng.Float64() < p {
		outcome = 1
	}
	row[DiabetesFields] = rel.Int(outcome)
	return row
}

// Batch generates n records.
func (d *Diabetes) Batch(n int) []rel.Row {
	out := make([]rel.Row, n)
	for i := range out {
		out[i] = d.Row()
	}
	return out
}

// DiabetesSource streams the generator's rows in a finite run of batches.
type DiabetesSource struct {
	gen       *Diabetes
	batchSize int
	remaining int
}

// NewSource creates a finite batch stream.
func (d *Diabetes) NewSource(batchSize, totalBatches int) *DiabetesSource {
	return &DiabetesSource{gen: d, batchSize: batchSize, remaining: totalBatches}
}

// Next returns the next batch of rows, or ok=false when exhausted.
func (s *DiabetesSource) Next() ([]rel.Row, bool) {
	if s.remaining <= 0 {
		return nil, false
	}
	s.remaining--
	return s.gen.Batch(s.batchSize), true
}

// DiabetesFeaturizer bucketizes the numeric attributes into per-field ids
// for the ARM-Net embedding and extracts the binary label.
func DiabetesFeaturizer(rows []rel.Row) (*nn.Matrix, *nn.Matrix) {
	x := nn.NewMatrix(len(rows), DiabetesFields)
	y := nn.NewMatrix(len(rows), 1)
	for i, row := range rows {
		for f := 0; f < DiabetesFields; f++ {
			v := row[f].AsFloat()
			b := int(v * DiabetesBuckets)
			if b < 0 {
				b = 0
			}
			if b >= DiabetesBuckets {
				b = DiabetesBuckets - 1
			}
			x.Set(i, f, float64(f*DiabetesBuckets+b))
		}
		y.Set(i, 0, row[DiabetesFields].AsFloat())
	}
	return x, y
}

// DiabetesTotalVocab is the embedding vocabulary for the featurizer.
const DiabetesTotalVocab = DiabetesFields * DiabetesBuckets
