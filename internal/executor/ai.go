package executor

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/catalog"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
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

// predictBuffers hold what a PREDICT statement encodes its rows into: the
// code matrix, the labels, the epoch's permutation, an index scan's RowIDs,
// the access node's batch and the batch the task reads. predictFree hands
// them from one statement to the next, so a steady-state PREDICT allocates
// nothing of its window's size.
type predictBuffers struct {
	// codes is the statement's code matrix, row-major with one column per
	// feature: the training rows in scan order, then the rows to predict.
	codes  []float64
	labels []float64 // one per training row
	perm   []int     // the training rows in the current epoch's order
	ids    []storage.RowID
	rows   rel.Batch
	// gx and gy hold a training batch's rows and labels, gathered through
	// perm; x, y and batch are the batch the task reads.
	gx, gy []float64
	x, y   nn.Matrix
	batch  aiengine.Batch
	rng    *rand.Rand // reshuffles perm between epochs; reseeded per statement
}

// predictFree is the free list of predictBuffers: a list under a lock rather
// than a sync.Pool, whose per-P caches miss whenever a statement's goroutine
// runs on another P than the last one's, and drop their contents at every
// other GC. It keeps at most predictFreeSets sets, and none whose code matrix
// outgrew predictKeepCodes values, so one PREDICT over a large table does not
// pin its buffers for the life of the process.
var predictFree struct {
	sync.Mutex
	sets []*predictBuffers
}

const (
	predictFreeSets  = 4
	predictKeepCodes = 1 << 20 // 8 MB: a window of ~250,000 rows of three features
)

func getPredictBuffers() *predictBuffers {
	predictFree.Lock()
	defer predictFree.Unlock()
	n := len(predictFree.sets)
	if n == 0 {
		return new(predictBuffers)
	}
	b := predictFree.sets[n-1]
	predictFree.sets = predictFree.sets[:n-1]
	return b
}

// release returns b to the free list without the rows its batch pointed at.
func (b *predictBuffers) release() {
	clear(b.rows.Rows[:cap(b.rows.Rows)])
	b.x, b.y, b.batch = nn.Matrix{}, nn.Matrix{}, aiengine.Batch{}
	predictFree.Lock()
	defer predictFree.Unlock()
	if len(predictFree.sets) < predictFreeSets && cap(b.codes) <= predictKeepCodes {
		predictFree.sets = append(predictFree.sets, b)
	}
}

// encode runs access node n to completion and appends the feature codes of
// every row keep accepts — the values at cols, through codecs — to the code
// matrix, and its label to labels when label is set. An index scan collects
// its RowIDs into b.ids.
func (b *predictBuffers) encode(ctx *Ctx, n plan.Node, keep func(rel.Row) bool, cols []int, codecs []fieldCodec, label func(rel.Row) float64) error {
	it, err := BuildBatch(n, ctx)
	if err != nil {
		return err
	}
	scan, _ := it.(*indexScanBatch)
	if scan != nil {
		scan.buf = b.ids
	}
	if err := it.Open(); err != nil {
		return err
	}
	defer it.Close()
	for {
		cnt, err := it.NextBatch(&b.rows)
		if err != nil || cnt == 0 {
			if scan != nil {
				b.ids = scan.buf
			}
			return err
		}
		for _, row := range b.rows.Rows {
			if !keep(row) {
				continue
			}
			b.appendCodes(row, cols, codecs)
			if label != nil {
				b.labels = append(b.labels, label(row))
			}
		}
	}
}

// appendCodes appends row's feature codes — the values at cols, through
// codecs — to the code matrix.
func (b *predictBuffers) appendCodes(row rel.Row, cols []int, codecs []fieldCodec) {
	for f, col := range cols {
		b.codes = append(b.codes, float64(f*predictBuckets+codecs[f].encode(row[col])))
	}
}

// windowSource is a PREDICT task's aiengine.DataSource over the statement's
// code matrix. It hands out fixed-size batches of the training rows for a
// number of epochs, each gathered through the permutation, which is
// reshuffled between epochs, and then — once, in order — row ranges of the
// rows to predict.
type windowSource struct {
	b      *predictBuffers
	fields int
	train  int // training rows: the code matrix's first rows
	size   int
	pos    int // next row: an index into perm while training, into the code matrix after
	epochs int
	// predicting is set once the batches come from the rows to predict.
	predicting bool
}

// Next implements aiengine.DataSource. A batch is valid until the next call:
// training batches are gathered into the same two matrices, and a batch to
// predict is a view of the code matrix.
func (c *windowSource) Next() (*aiengine.Batch, bool) {
	b, f := c.b, c.fields
	if !c.predicting && c.pos >= c.train {
		if c.epochs > 1 {
			c.epochs--
			c.pos = 0
			b.rng.Shuffle(len(b.perm), func(i, j int) { b.perm[i], b.perm[j] = b.perm[j], b.perm[i] })
		} else {
			c.predicting = true // pos is train: the rows to predict follow
		}
	}
	if c.predicting {
		total := len(b.codes) / f
		if c.pos >= total {
			return nil, false
		}
		end := min(c.pos+c.size, total)
		b.x = nn.Matrix{Rows: end - c.pos, Cols: f, Data: b.codes[c.pos*f : end*f]}
		b.batch = aiengine.Batch{X: &b.x}
		c.pos = end
		return &b.batch, true
	}
	rows := b.perm[c.pos:min(c.pos+c.size, c.train)]
	c.pos += len(rows)
	b.gx, b.gy = slices.Grow(b.gx[:0], len(rows)*f)[:len(rows)*f], slices.Grow(b.gy[:0], len(rows))[:len(rows)]
	b.x = nn.Matrix{Rows: len(rows), Cols: f, Data: b.gx}
	b.y = nn.Matrix{Rows: len(rows), Cols: 1, Data: b.gy}
	for i, r := range rows {
		copy(b.x.Data[i*f:(i+1)*f], b.codes[r*f:(r+1)*f])
		b.y.Data[i] = b.labels[r]
	}
	b.batch = aiengine.Batch{X: &b.x, Y: &b.y}
	return &b.batch, true
}

// PREDICT's training and model shape: constants, not options — no statement
// or setting ever chose them, and stored models assume exactly these values.
const (
	predictBatchSize = 128  // rows per training and inference batch
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
	// extraction cost bounds adaptive training). Each row is encoded as it
	// streams past, into one code matrix, and no row outlives its batch. What
	// no clause spells stays here: a row trains only if it has a target, and
	// with neither WHERE nor VALUES the rows to predict are the ones without.
	codecs := buildCodecs(task.Table, task.FeatureIdxs, predictBuckets)
	b := getPredictBuffers()
	defer b.release()
	b.codes, b.labels = b.codes[:0], b.labels[:0]
	label := func(row rel.Row) float64 {
		tv := row[task.TargetIdx].AsFloat()
		if task.Classification && tv > 0.5 {
			tv = 1
		} else if task.Classification {
			tv = 0
		}
		return tv
	}
	err := b.encode(ctx, task.Train, func(row rel.Row) bool { return !row[task.TargetIdx].IsNull() },
		task.FeatureIdxs, codecs, label)
	if err != nil {
		return nil, err
	}
	train := len(b.labels)
	if train == 0 {
		return nil, fmt.Errorf("executor: predict has no training rows in %s", task.Table.Name)
	}
	// The rows to predict: extracted like the training rows, or inline VALUES,
	// which are already in feature order (arity checked above). With neither,
	// the task degenerates to model training.
	if len(inline) > 0 {
		cols := make([]int, fields)
		for f := range cols {
			cols[f] = f
		}
		for _, row := range inline {
			b.appendCodes(row, cols, codecs)
		}
	} else if task.Infer != nil {
		err := b.encode(ctx, task.Infer, func(row rel.Row) bool { return !task.NullTargets || row[task.TargetIdx].IsNull() },
			task.FeatureIdxs, codecs, nil)
		if err != nil {
			return nil, err
		}
	}
	// Repeat the training data (reshuffled per epoch) until the step budget
	// is spent: a small table gets many epochs, a large one a single pass.
	// The first epoch takes the rows in scan order; each reshuffle permutes
	// the order the last one left.
	b.perm = slices.Grow(b.perm[:0], train)[:train]
	for i := range b.perm {
		b.perm[i] = i
	}
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(7))
	} else {
		b.rng.Seed(7) // the state rand.NewSource(7) starts in
	}
	stepsPerEpoch := (train + predictBatchSize - 1) / predictBatchSize
	src := &windowSource{
		b: b, fields: fields, train: train, size: predictBatchSize,
		epochs: min(predictSteps/max(stepsPerEpoch, 1)+1, predictMaxEpochs),
	}

	var out *aiengine.TrainOutcome
	if reuse {
		// Incremental path: fine-tune the existing model on fresh data.
		out, err = eng.FineTune(view.MID, 0, armnet.FreezePrefixLayers, predictLR, src)
	} else {
		out, err = eng.Train(models.Spec{
			Arch: "armnet", Fields: fields, Vocab: fields * predictBuckets,
			EmbDim: predictEmbDim, Hidden: predictHidden,
			Classification: task.Classification, Seed: 42, Features: features,
		}, aiengine.TrainConfig{Name: task.ModelName, LR: predictLR}, src)
	}
	if err != nil {
		return nil, err
	}
	return &PredictResult{Predictions: out.Preds, Train: out, MID: out.MID, Reused: reuse}, nil
}
