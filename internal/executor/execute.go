package executor

import (
	"fmt"

	"neurdb/internal/aiengine"
	"neurdb/internal/plan"
)

// Outcome is what a plan node that runs to completion leaves behind: the
// command tag and row count of a write, or a PREDICT's result.
type Outcome struct {
	Tag      string // INSERT, UPDATE, DELETE or PREDICT
	Affected int
	Predict  *PredictResult
}

// Execute runs a write or PREDICT node to completion inside the context
// transaction — BuildBatch's counterpart for the nodes that do not stream
// rows. The caller owns the transaction (commit on nil, abort otherwise).
func Execute(n plan.Node, ctx *Ctx, eng *aiengine.Engine) (Outcome, error) {
	switch t := n.(type) {
	case *plan.Insert:
		rows := ctx.valuesRows(t.Values)
		_, err := InsertBatch(ctx, t.Table, rows)
		return Outcome{Tag: "INSERT", Affected: len(rows)}, err
	case *plan.Update:
		cnt, err := UpdateWhere(ctx, t.Child, t.Set)
		return Outcome{Tag: "UPDATE", Affected: cnt}, err
	case *plan.Delete:
		cnt, err := DeleteWhere(ctx, t.Child)
		return Outcome{Tag: "DELETE", Affected: cnt}, err
	case *plan.Predict:
		res, err := RunPredict(ctx, eng, t)
		return Outcome{Tag: "PREDICT", Predict: res}, err
	case *plan.SeqScan, *plan.IndexScan, *plan.HashJoin, *plan.NLJoin, *plan.IndexJoin,
		*plan.Filter, *plan.Project, *plan.Agg, *plan.Sort, *plan.Limit:
		// These stream rows: see BuildBatch. No default, as there.
	}
	return Outcome{}, fmt.Errorf("executor: %T streams rows; run it with BuildBatch", n)
}
