package executor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"

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
	Train       *aiengine.TrainOutcome
	MID         int
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
	if !c.isNumeric || v.Type() == rel.TypeText {
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
// epochs, reshuffling between epochs, and then — once, in order — the rows
// to predict.
type chunkSource struct {
	rows   []rel.Row
	size   int
	pos    int
	epochs int
	rng    *rand.Rand
	then   []rel.Row // rows to predict, chunked after the last epoch
	// predicting is set once Next hands out chunks of then: the loader calls
	// Next and the featurizer from one goroutine, so the featurizer reads it.
	predicting bool
}

// Next implements aiengine.RowBatchSource.
func (c *chunkSource) Next() ([]rel.Row, bool) {
	if c.pos >= len(c.rows) {
		switch {
		case c.epochs > 1:
			c.epochs--
			c.pos = 0
			c.rng.Shuffle(len(c.rows), func(i, j int) {
				c.rows[i], c.rows[j] = c.rows[j], c.rows[i]
			})
		case len(c.then) > 0:
			c.rows, c.then, c.pos, c.predicting = c.then, nil, 0, true
		default:
			return nil, false
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

// RunPredict executes a PREDICT node end to end as one AI task: the rows to
// train on stream through the model with their labels and train a new model
// (or fine-tune the one bound to the target), the rows to predict follow
// without labels and come back as predictions, and the model version is
// stored once all of it succeeded.
func RunPredict(ctx *Ctx, eng *aiengine.Engine, task *plan.Predict) (*PredictResult, error) {
	fields := len(task.FeatureIdxs)
	if fields == 0 {
		return nil, fmt.Errorf("executor: predict with no feature columns")
	}
	// Inline rows are positional over FeatureIdxs; a short or long row would
	// misalign every feature after the mismatch, so reject it up front.
	inline := ctx.valuesRows(task.Values)
	for i, row := range inline {
		if len(row) != fields {
			return nil, fmt.Errorf("executor: inline predict row %d has %d values for %d feature columns",
				i+1, len(row), fields)
		}
	}
	// The model is bound by table.target, and answers only for the feature
	// columns it was trained on, in that order: another list would feed it
	// other columns' buckets, or batches of another width.
	features := make([]string, fields)
	for f, col := range task.FeatureIdxs {
		features[f] = task.Table.Schema.Col(col).Name
	}
	view, reuse := eng.Store.FindViewByName(task.ModelName)
	if reuse {
		spec, err := eng.Store.Spec(view.MID)
		if err != nil {
			return nil, err
		}
		if !slices.Equal(spec.Features, features) {
			return nil, fmt.Errorf("executor: model %s is trained on (%s), this statement trains on (%s)",
				task.ModelName, strings.Join(spec.Features, ", "), strings.Join(features, ", "))
		}
	}

	// Extraction: each row source is an access node (index or heap scan,
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
	// Repeat the training data (reshuffled per epoch) until the step budget
	// is spent: a small table gets many epochs, a large one a single pass.
	// trainRows is freshly collected and not used for anything else, so the
	// per-epoch reshuffle can permute it in place.
	stepsPerEpoch := (len(trainRows) + predictBatchSize - 1) / predictBatchSize
	src := &chunkSource{
		rows: trainRows, size: predictBatchSize,
		epochs: min(predictSteps/max(stepsPerEpoch, 1)+1, predictMaxEpochs),
		rng:    rand.New(rand.NewSource(7)),
	}
	// The rows to predict: extracted like the training rows, or inline VALUES,
	// which are already in feature order (arity checked above). With neither,
	// the task degenerates to model training.
	predictCols := task.FeatureIdxs
	if len(inline) > 0 {
		src.then, predictCols = inline, make([]int, fields)
		for f := range predictCols {
			predictCols[f] = f
		}
	} else if task.Infer != nil {
		src.then, err = runKeeping(ctx, task.Infer, func(row rel.Row) bool {
			return !task.NullTargets || row[task.TargetIdx].IsNull()
		})
		if err != nil {
			return nil, err
		}
	}

	codecs := buildCodecs(task.Table, task.FeatureIdxs, predictBuckets)
	featurize := func(rows []rel.Row) (x, y *nn.Matrix) {
		cols := task.FeatureIdxs
		if src.predicting {
			cols = predictCols
		}
		x = nn.NewMatrix(len(rows), fields)
		for i, row := range rows {
			for f, col := range cols {
				x.Set(i, f, float64(f*predictBuckets+codecs[f].encode(row[col])))
			}
		}
		if src.predicting {
			return x, nil // no labels: the task answers with predictions
		}
		y = nn.NewMatrix(len(rows), 1)
		for i, row := range rows {
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
	loader := aiengine.NewStreamingLoader(src, featurize, predictWindow)
	// A task that fails stops reading: without this the prefetch goroutine
	// would wait on its channel for ever, holding trainRows.
	defer loader.Close()

	var out *aiengine.TrainOutcome
	if reuse {
		// Incremental path: fine-tune the existing model on fresh data.
		out, err = eng.FineTune(view.MID, 0, armnet.FreezePrefixLayers, predictLR, loader)
	} else {
		out, err = eng.Train(models.Spec{
			Arch: "armnet", Fields: fields, Vocab: fields * predictBuckets,
			EmbDim: predictEmbDim, Hidden: predictHidden,
			Classification: task.Classification, Seed: 42, Features: features,
		}, aiengine.TrainConfig{Name: task.ModelName, LR: predictLR}, loader)
	}
	if err != nil {
		return nil, err
	}
	return &PredictResult{Predictions: out.Preds, Train: out, MID: out.MID, Reused: reuse}, nil
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
