// Package aiengine implements the model-manager operations of the paper's
// in-database AI ecosystem (§4.1): train, inference and fine-tune, backed by
// the layered model store. A task is one call on its caller's goroutine, and
// a stream, not a kind: it takes an optimization step on every batch that
// carries labels and answers every batch that does not with predictions.
package aiengine

import (
	"fmt"
	"time"

	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
)

// Batch is one unit of streamed training/inference data.
type Batch struct {
	X, Y *nn.Matrix
}

// DataSource supplies batches to a task. The task calls Next on its caller's
// goroutine, so a source prepares each batch as it is asked for it, and it
// reads a batch only until its next call: a source may refill one batch's
// matrices for every call.
type DataSource interface {
	// Next returns the next batch, or ok=false when exhausted.
	Next() (*Batch, bool)
}

// SliceSource adapts a pre-materialized batch list to DataSource.
//
//neurdb:reserved direction 2
type SliceSource struct {
	Batches []*Batch
	pos     int
}

// Next implements DataSource.
func (s *SliceSource) Next() (*Batch, bool) {
	if s.pos >= len(s.Batches) {
		return nil, false
	}
	b := s.Batches[s.pos]
	s.pos++
	return b, true
}

// Engine is the in-database AI engine: it owns the model store and exposes
// the train / inference / fine-tune operators that the executor's AI
// operators call. Each runs as one task on its caller's goroutine.
type Engine struct {
	Store *models.Store

	// memo is the frozen-prefix memo every task of this engine shares.
	memo *armnet.PrefixMemo
}

// NewEngine creates an engine backed by the given model store.
func NewEngine(store *models.Store) *Engine {
	return &Engine{Store: store, memo: armnet.NewPrefixMemo(armnet.PrefixMemoBytes)}
}

// TrainConfig parameterizes a training task.
type TrainConfig struct {
	Name string // optional model-view name to bind
	// BatchSize and Window are read by nothing: a source's batches are as
	// large as it makes them, and a task has no window. They are kept only
	// because the benchmark module sets them.
	//neurdb:reserved direction 2
	BatchSize int
	//neurdb:reserved direction 2
	Window int
	LR     float64
}

// TrainOutcome reports a completed task: the version it stored, the loss of
// every batch it trained on and the predictions for every batch that carried
// no labels.
type TrainOutcome struct {
	MID        int
	TS         uint64
	Batches    int
	Losses     []float64
	Preds      []float64
	Samples    int // rows trained on
	Duration   time.Duration
	Throughput float64 // samples/sec
}

// Train runs a training task end to end: stream, store the model, optionally
// bind a view.
func (e *Engine) Train(spec models.Spec, cfg TrainConfig, src DataSource) (*TrainOutcome, error) {
	task := taskSpec{Model: spec, LR: cfg.LR}
	return e.run(task, src, func(weights []nn.LayerWeights) (int, uint64, error) {
		mid := e.Store.Register(spec, len(weights))
		ts, err := e.Store.SaveFull(mid, weights)
		if err == nil && cfg.Name != "" {
			err = e.Store.CreateView(cfg.Name, mid)
		}
		return mid, ts, err
	})
}

// Infer runs inference with model version (mid, ts); ts = 0 means latest. It
// predicts every batch of src, labelled or not, and stores nothing.
//
//neurdb:reserved direction 2
func (e *Engine) Infer(mid int, ts uint64, src DataSource) ([]float64, error) {
	// An inference trains nothing, so any split is right: it takes the one
	// fine-tunes use, which lets the two share memo entries.
	task, err := e.storedTask(mid, ts, armnet.FreezePrefixLayers, 0)
	if err != nil {
		return nil, err
	}
	out, err := e.run(task, unlabelled{src}, nil)
	if err != nil {
		return nil, err
	}
	return out.Preds, nil
}

// FineTune incrementally updates model (mid, ts): layers [0, freezeUpTo)
// stay frozen, the tail trains on the stream, and only the updated layers
// are persisted (models.SavePartial) as a new version.
func (e *Engine) FineTune(mid int, ts uint64, freezeUpTo int, lr float64, src DataSource) (*TrainOutcome, error) {
	task, err := e.storedTask(mid, ts, freezeUpTo, lr)
	if err != nil {
		return nil, err
	}
	return e.run(task, src, func(weights []nn.LayerWeights) (int, uint64, error) {
		updated := make(map[int]nn.LayerWeights)
		for lid := freezeUpTo; lid < len(weights); lid++ {
			if len(weights[lid].Shapes) > 0 {
				updated[lid] = weights[lid]
			}
		}
		newTS, err := e.Store.SavePartial(mid, updated)
		return mid, newTS, err
	})
}

// storedTask is the task that resumes stored model version (mid, ts).
func (e *Engine) storedTask(mid int, ts uint64, freezeUpTo int, lr float64) (taskSpec, error) {
	weights, _, err := e.Store.Load(mid, ts)
	if err != nil {
		return taskSpec{}, err
	}
	spec, err := e.Store.Spec(mid)
	if err != nil {
		return taskSpec{}, err
	}
	return taskSpec{Model: spec, InitWeights: weights, FreezeUpTo: freezeUpTo, LR: lr}, nil
}

// run is the one way a task executes: run src through the model — its
// labelled batches train, the others come back as predictions — and hand the
// trained weights to save, which stores them and returns the version. The
// save comes last: a task that fails anywhere in its stream, predictions
// included, stores nothing. A nil save is for a task that trains nothing.
func (e *Engine) run(task taskSpec, src DataSource, save func([]nn.LayerWeights) (mid int, ts uint64, err error)) (*TrainOutcome, error) {
	start := time.Now()
	out, weights, err := runTask(task, src, e.memo)
	if err != nil {
		return nil, err
	}
	out.Duration = time.Since(start)
	if out.Duration > 0 {
		out.Throughput = float64(out.Samples) / out.Duration.Seconds()
	}
	if save == nil {
		return out, nil
	}
	if weights == nil {
		return nil, fmt.Errorf("aiengine: the task's stream has no labelled batch to train on")
	}
	if out.MID, out.TS, err = save(weights); err != nil {
		return nil, err
	}
	return out, nil
}

// unlabelled strips the labels off a source's batches, which makes every one
// of them a request for predictions.
type unlabelled struct{ DataSource }

func (u unlabelled) Next() (*Batch, bool) {
	b, ok := u.DataSource.Next()
	if ok && b.Y != nil {
		b = &Batch{X: b.X}
	}
	return b, ok
}
