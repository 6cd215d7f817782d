package learnedopt

import (
	"math"

	"neurdb/internal/plan"
)

// NodeFeatureDim is the width of a plan-node token vector consumed by the
// learned optimizer's tree-transformer encoder. Layout:
//
//	[0..6]  one-hot operator type (seqscan, indexscan, hashjoin, nljoin,
//	        indexjoin, filter, other)
//	[7]     log1p(estimated rows), scaled
//	[8]     log1p(estimated cost), scaled
//	[9]     depth / 8
//	[10]    normalized table id (leaves; 0 otherwise)
//	[11]    log1p(table row count), scaled (leaves; 0 otherwise)
const NodeFeatureDim = 12

const logScale = 1.0 / 20.0 // log1p values land roughly in [0, 1]

// NodeFeatures encodes one operator as a feature vector.
func NodeFeatures(n plan.Node, depth int) []float64 {
	f := make([]float64, NodeFeatureDim)
	switch t := n.(type) {
	case *plan.SeqScan:
		f[0] = 1
		f[10] = float64(t.Table.ID%16) / 16
		f[11] = math.Log1p(float64(t.Table.Stats.Rows())) * logScale
	case *plan.IndexScan:
		f[1] = 1
		f[10] = float64(t.Table.ID%16) / 16
		f[11] = math.Log1p(float64(t.Table.Stats.Rows())) * logScale
	case *plan.HashJoin:
		f[2] = 1
	case *plan.NLJoin:
		f[3] = 1
	case *plan.IndexJoin:
		f[4] = 1
		f[10] = float64(t.Table.ID%16) / 16
		f[11] = math.Log1p(float64(t.Table.Stats.Rows())) * logScale
	case *plan.Filter:
		f[5] = 1
	default:
		f[6] = 1
	}
	rows, cost := n.Estimates()
	f[7] = math.Log1p(math.Max(rows, 0)) * logScale
	f[8] = math.Log1p(math.Max(cost, 0)) * logScale
	f[9] = float64(depth) / 8
	return f
}

// EncodeTree flattens a plan into a pre-order token sequence, one feature
// vector per operator. The depth feature preserves tree structure for the
// transformer (a standard tree-linearization trick).
func EncodeTree(n plan.Node) [][]float64 {
	var out [][]float64
	plan.Walk(n, func(node plan.Node, depth int) {
		out = append(out, NodeFeatures(node, depth))
	})
	return out
}
