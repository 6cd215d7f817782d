package aiengine

import (
	"fmt"

	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
)

// taskSpec is what a task starts from: the model's structure and arguments,
// the weights to resume and how to split them, and the learning rate.
type taskSpec struct {
	Model models.Spec
	LR    float64
	// FreezeUpTo splits the model: layers [0, n) are a frozen prefix no step
	// changes (and whose output the memo holds), the rest train. 0 trains
	// everything.
	FreezeUpTo int
	// InitWeights carries a stored model; empty starts from the spec's seed.
	InitWeights []nn.LayerWeights
}

// buildModel constructs the model described by a spec.
func buildModel(spec models.Spec) (*armnet.Model, error) {
	switch spec.Arch {
	case "armnet", "":
		return armnet.New(spec.Fields, spec.Vocab, spec.EmbDim, spec.Hidden, spec.Classification, spec.Seed), nil
	default:
		return nil, fmt.Errorf("aiengine: unknown architecture %q", spec.Arch)
	}
}

// runTask executes one task on the caller's goroutine: it takes one
// optimization step on every batch of src that carries labels and predicts
// every batch that does not. The outcome holds the losses and the predictions
// in stream order and the rows trained on; the weights are the trained model's,
// nil if no batch trained. memo is the frozen-prefix memo the task shares with
// the engine's other tasks; nil computes every prefix.
func runTask(spec taskSpec, src DataSource, memo *armnet.PrefixMemo) (*TrainOutcome, []nn.LayerWeights, error) {
	model, err := buildModel(spec.Model)
	if err != nil {
		return nil, nil, err
	}
	if len(spec.InitWeights) > 0 {
		if err := model.Restore(spec.InitWeights); err != nil {
			return nil, nil, fmt.Errorf("aiengine: restore weights: %w", err)
		}
	}
	// The model runs as frozen prefix → head, split where the spec says.
	// Tasks that freeze the same prefix of the same weights — the fine-tunes
	// of one model, and the inferences between them — share memo entries.
	model.Freeze(spec.FreezeUpTo)
	model.UseMemo(memo)
	lr := spec.LR
	if lr == 0 {
		lr = 0.01
	}
	opt := nn.NewAdam(lr)

	out := &TrainOutcome{}
	for b, ok := src.Next(); ok; b, ok = src.Next() {
		if b.X.Cols != model.Fields {
			return nil, nil, fmt.Errorf("aiengine: batch has %d fields, the model %d", b.X.Cols, model.Fields)
		}
		// The batch says what it is for: labels train, none predict.
		if b.Y != nil {
			out.Losses = append(out.Losses, model.TrainBatch(b.X, b.Y, opt))
			out.Samples += b.X.Rows
		} else {
			out.Preds = append(out.Preds, model.Predict(b.X).Data...) // copied out of the model's scratch
		}
		out.Batches++
	}
	if len(out.Losses) == 0 {
		return out, nil, nil
	}
	return out, model.Snapshot(), nil
}
