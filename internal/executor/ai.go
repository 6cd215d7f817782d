package executor

import (
	"fmt"
	"math/rand"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/catalog"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

// PredictResult reports a completed PREDICT.
type PredictResult struct {
	Predictions []float64
	Inputs      []rel.Row
	Train       *aiengine.TrainOutcome
	MID         int
	TS          uint64
	Reused      bool // true when an existing model view was fine-tuned
}

// fieldCodec featurizes one column into bucket ids with a stable mapping
// snapshotted at task start.
type fieldCodec struct {
	isNumeric bool
	min, max  float64
	buckets   int
}

func (c fieldCodec) encode(v rel.Value) int {
	if !c.isNumeric || v.Typ == rel.TypeText {
		return int(v.Hash() % uint64(c.buckets))
	}
	f := v.AsFloat()
	span := c.max - c.min
	if span <= 0 {
		return 0
	}
	b := int((f - c.min) / span * float64(c.buckets))
	if b < 0 {
		b = 0
	}
	if b >= c.buckets {
		b = c.buckets - 1
	}
	return b
}

// buildCodecs snapshots per-feature featurization from table statistics.
func buildCodecs(t *catalog.Table, featureIdxs []int, buckets int) []fieldCodec {
	out := make([]fieldCodec, len(featureIdxs))
	for i, col := range featureIdxs {
		cs := t.Stats.Col(col)
		typ := t.Schema.Col(col).Typ
		out[i] = fieldCodec{
			isNumeric: typ == rel.TypeInt || typ == rel.TypeFloat || typ == rel.TypeBool,
			min:       cs.Min,
			max:       cs.Max,
			buckets:   buckets,
		}
		if cs.Count == 0 {
			// No statistics yet: hash everything.
			out[i].isNumeric = false
		}
	}
	return out
}

// chunkSource yields fixed-size row batches from a slice for a number of
// epochs, reshuffling between epochs.
type chunkSource struct {
	rows   []rel.Row
	size   int
	pos    int
	epochs int
	rng    *rand.Rand
}

// Next implements aiengine.RowBatchSource.
func (c *chunkSource) Next() ([]rel.Row, bool) {
	if c.pos >= len(c.rows) {
		if c.epochs <= 1 {
			return nil, false
		}
		c.epochs--
		c.pos = 0
		if c.rng != nil {
			c.rng.Shuffle(len(c.rows), func(i, j int) {
				c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
			})
		}
	}
	end := c.pos + c.size
	if end > len(c.rows) {
		end = len(c.rows)
	}
	chunk := c.rows[c.pos:end]
	c.pos = end
	return chunk, true
}

// PREDICT's training and model shape: constants, not options — no statement
// or setting ever chose them, and stored models assume exactly these values.
const (
	predictBatchSize = 128  // rows per training and inference batch
	predictWindow    = 8    // streaming-loader window, in batches
	predictLR        = 0.02 // learning rate, training and fine-tuning
	predictBuckets   = 32   // featurization buckets per field
	predictEmbDim    = 8
	predictHidden    = 32
	predictSteps     = 60 // optimization-step budget the epoch count targets
	predictMaxEpochs = 40 // its cap, for tiny tables
)

// RunPredict executes a PREDICT node end to end: retrieve training data,
// train (or fine-tune an existing model view), then run inference and
// return predictions.
func RunPredict(ctx *Ctx, eng *aiengine.Engine, task *plan.Predict) (*PredictResult, error) {
	if len(task.FeatureIdxs) == 0 {
		return nil, fmt.Errorf("executor: predict with no feature columns")
	}
	// Inline rows are positional over FeatureIdxs; a short or long row would
	// misalign every feature after the mismatch, so reject it up front.
	for i, row := range task.Rows {
		if len(row) != len(task.FeatureIdxs) {
			return nil, fmt.Errorf("executor: inline predict row %d has %d values for %d feature columns",
				i+1, len(row), len(task.FeatureIdxs))
		}
	}

	// 1. Extraction: each row source is an access node (index or heap scan,
	// chosen at plan time like a SELECT's) run through the batch engine, so a
	// windowed PREDICT reads its window, not the table (paper Fig. 6a:
	// extraction cost bounds adaptive training). What no clause spells stays
	// here: a row trains only if it has a target, and with neither WHERE nor
	// VALUES the rows to predict are the ones without.
	trainRows, err := runKeeping(ctx, task.Train, func(row rel.Row) bool { return !row[task.TargetIdx].IsNull() })
	if err != nil {
		return nil, err
	}
	if len(trainRows) == 0 {
		return nil, fmt.Errorf("executor: predict has no training rows in %s", task.Table.Name)
	}
	var inferRows []rel.Row
	if task.Infer != nil {
		inferRows, err = runKeeping(ctx, task.Infer, func(row rel.Row) bool {
			return !task.NullTargets || row[task.TargetIdx].IsNull()
		})
		if err != nil {
			return nil, err
		}
	}

	codecs := buildCodecs(task.Table, task.FeatureIdxs, predictBuckets)
	fields := len(task.FeatureIdxs)
	vocab := fields * predictBuckets
	featurize := func(rows []rel.Row) (*nn.Matrix, *nn.Matrix) {
		x := nn.NewMatrix(len(rows), fields)
		y := nn.NewMatrix(len(rows), 1)
		for i, row := range rows {
			for f, col := range task.FeatureIdxs {
				x.Set(i, f, float64(f*predictBuckets+codecs[f].encode(row[col])))
			}
			tv := row[task.TargetIdx].AsFloat()
			if task.Classification && tv > 0.5 {
				tv = 1
			} else if task.Classification {
				tv = 0
			}
			y.Set(i, 0, tv)
		}
		return x, y
	}
	// Inline VALUES rows are already in feature order (arity checked above).
	featurizeInline := func(rows []rel.Row) *nn.Matrix {
		x := nn.NewMatrix(len(rows), fields)
		for i, row := range rows {
			for f := range task.FeatureIdxs {
				x.Set(i, f, float64(f*predictBuckets+codecs[f].encode(row[f])))
			}
		}
		return x
	}

	spec := models.Spec{
		Arch: "armnet", Fields: fields, Vocab: vocab,
		EmbDim: predictEmbDim, Hidden: predictHidden,
		Classification: task.Classification, Seed: 42,
	}

	// Repeat the training data (reshuffled per epoch) until the step budget
	// is spent: a small table gets many epochs, a large one a single pass.
	stepsPerEpoch := (len(trainRows) + predictBatchSize - 1) / predictBatchSize
	epochs := min(predictSteps/max(stepsPerEpoch, 1)+1, predictMaxEpochs)
	res := &PredictResult{}
	// trainRows is freshly collected above and not used for anything else,
	// so the per-epoch reshuffle can permute it in place.
	loader := aiengine.NewStreamingLoader(&chunkSource{
		rows: trainRows, size: predictBatchSize, epochs: epochs,
		rng: rand.New(rand.NewSource(7)),
	}, featurize, predictWindow)
	// A task that fails stops reading: without this the prefetch goroutine
	// would wait on its channel for ever, holding trainRows.
	defer loader.Close()
	if view, ok := eng.Store.FindViewByName(task.ModelName); ok && task.ModelName != "" {
		// Incremental path: fine-tune the existing model on fresh data.
		out, err := eng.FineTune(view.MID, 0, armnet.FreezePrefixLayers, predictLR, loader)
		if err != nil {
			return nil, err
		}
		res.Train = out
		res.MID, res.TS = out.MID, out.TS
		res.Reused = true
	} else {
		out, err := eng.Train(spec, aiengine.TrainConfig{
			Name: task.ModelName, BatchSize: predictBatchSize,
			Window: predictWindow, LR: predictLR,
		}, loader)
		if err != nil {
			return nil, err
		}
		res.Train = out
		res.MID, res.TS = out.MID, out.TS
	}

	// 2. Inference inputs: inline VALUES, or the rows extracted above.
	var inferX *nn.Matrix
	if len(task.Rows) > 0 {
		res.Inputs = task.Rows
		inferX = featurizeInline(task.Rows)
	} else {
		res.Inputs = inferRows
		if len(res.Inputs) == 0 {
			// Nothing to predict: the task degenerates to model training.
			return res, nil
		}
		x, _ := featurize(res.Inputs)
		inferX = x
	}
	batches := make([]*aiengine.Batch, 0, inferX.Rows/predictBatchSize+1)
	for start := 0; start < inferX.Rows; start += predictBatchSize {
		end := start + predictBatchSize
		if end > inferX.Rows {
			end = inferX.Rows
		}
		sub := nn.NewMatrix(end-start, inferX.Cols)
		copy(sub.Data, inferX.Data[start*inferX.Cols:end*inferX.Cols])
		batches = append(batches, &aiengine.Batch{X: sub})
	}
	preds, err := eng.Infer(res.MID, 0, &aiengine.SliceSource{Batches: batches})
	if err != nil {
		return nil, err
	}
	res.Predictions = preds
	return res, nil
}

// runKeeping runs a row-producing plan to completion and returns the rows
// keep accepts.
func runKeeping(ctx *Ctx, n plan.Node, keep func(rel.Row) bool) ([]rel.Row, error) {
	rows, err := Run(n, ctx)
	kept := rows[:0]
	for _, row := range rows {
		if keep(row) {
			kept = append(kept, row)
		}
	}
	return kept, err
}
