package executor

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// oracle is the reference every differential test compares the engine
// against: a naive interpreter of a row-producing plan.Node over materialized
// rows. It takes from the engine only what a plan *means*: storage's page
// walk plus the transaction manager's per-row visibility answer give a
// table's visible rows in heap order, and rel evaluates expressions and compares
// values. It shares no operator, no index and no helper with the executor: an
// IndexScan is "the visible rows whose key lies in the probe bounds and that
// pass the filter, in heap order" whatever postings the index holds; every
// join is a nested loop; Agg groups in first-seen order; Sort is
// sort.SliceStable. A bug in indexScanIDs/indexFetch/heapOrder/indexRecheck
// or in any batch operator therefore shows as a difference, not as agreement.
func oracle(n plan.Node, ctx *Ctx) []rel.Row {
	switch n := n.(type) {
	case *plan.SeqScan:
		return oracleKeep(oracleVisible(ctx, n.Table), n.Filter)
	case *plan.IndexScan:
		rows := oracleKeep(oracleVisible(ctx, n.Table), n.Filter)
		return slices.DeleteFunc(rows, func(row rel.Row) bool { return !oracleInProbe(n, row[n.Index.Col]) })
	case *plan.HashJoin:
		return oracleJoin(oracle(n.L, ctx), oracle(n.R, ctx), n.LKey, n.RKey, n.Residual)
	case *plan.IndexJoin:
		inner := oracleKeep(oracleVisible(ctx, n.Table), n.Filter)
		return oracleJoin(oracle(n.L, ctx), inner, n.LKey, n.Index.Col, n.Residual)
	case *plan.NLJoin:
		return oracleJoin(oracle(n.L, ctx), oracle(n.R, ctx), -1, -1, n.On)
	case *plan.Filter:
		return oracleKeep(oracle(n.Child, ctx), n.Pred)
	case *plan.Project:
		var out []rel.Row
		for _, row := range oracle(n.Child, ctx) {
			p := make(rel.Row, len(n.Exprs))
			for i, e := range n.Exprs {
				p[i] = e.Eval(row)
			}
			out = append(out, p)
		}
		return out
	case *plan.Agg:
		return oracleAgg(n, oracle(n.Child, ctx))
	case *plan.Sort:
		rows := oracle(n.Child, ctx)
		sort.SliceStable(rows, func(i, j int) bool {
			for _, k := range n.Keys {
				if c := rel.Compare(k.E.Eval(rows[i]), k.E.Eval(rows[j])); c != 0 {
					return (c < 0) != k.Desc
				}
			}
			return false
		})
		return rows
	case *plan.Limit:
		rows := oracle(n.Child, ctx)
		return rows[:min(int64(len(rows)), n.N)]
	default:
		panic(fmt.Sprintf("oracle: unsupported plan node %T", n))
	}
}

// oracleVisible is the table's rows visible to ctx.Txn, in heap order.
func oracleVisible(ctx *Ctx, t *catalog.Table) []rel.Row {
	var out []rel.Row
	eachHead(t, func(_ storage.RowID, head *storage.Version) {
		if row, visible := ctx.Mgr.ReadHead(head, ctx.Txn); visible {
			out = append(out, row)
		}
	})
	return out
}

// oracleKeep is the rows for which pred is true (a nil pred keeps all); NULL
// is not true.
func oracleKeep(rows []rel.Row, pred rel.Expr) []rel.Row {
	var out []rel.Row
	for _, row := range rows {
		if pred == nil || pred.Eval(row).AsBool() {
			out = append(out, row)
		}
	}
	return out
}

// oracleInProbe: does key v satisfy the scan's probe? A NULL key or a NULL
// bound satisfies no comparison.
func oracleInProbe(n *plan.IndexScan, v rel.Value) bool {
	bound := func(e rel.Expr) *rel.Value {
		if e == nil {
			return nil
		}
		return &e.(*rel.Const).Val // the oracle runs literal plans only
	}
	eq, lo, hi := bound(n.Eq), bound(n.Lo), bound(n.Hi)
	for _, b := range []*rel.Value{eq, lo, hi} {
		if b != nil && b.IsNull() {
			return false
		}
	}
	switch {
	case v.IsNull():
		return false
	case eq != nil:
		return rel.Compare(v, *eq) == 0
	default:
		return (lo == nil || rel.Compare(v, *lo) >= 0) && (hi == nil || rel.Compare(v, *hi) <= 0)
	}
}

// oracleJoin is the nested loop every join kind reduces to: left-major, the
// right side in its own order, keys (when lkey >= 0) equal and not NULL, cond
// true on the concatenated row.
func oracleJoin(left, right []rel.Row, lkey, rkey int, cond rel.Expr) []rel.Row {
	var out []rel.Row
	for _, l := range left {
		for _, r := range right {
			if lkey >= 0 && (l[lkey].IsNull() || r[rkey].IsNull() || rel.Compare(l[lkey], r[rkey]) != 0) {
				continue
			}
			joined := append(l.Clone(), r...)
			if cond == nil || cond.Eval(joined).AsBool() {
				out = append(out, joined)
			}
		}
	}
	return out
}

// oracleAgg groups in first-seen order; a scalar aggregate over no rows is
// one row. Aggregates skip NULL inputs and are NULL (COUNT: 0) without any.
func oracleAgg(n *plan.Agg, in []rel.Row) []rel.Row {
	groups := map[string][]rel.Row{}
	var order []string
	for _, row := range in {
		key := ""
		for _, g := range n.GroupBy {
			// Numerically equal values (1, 1.0, TRUE; -0 and 0) group
			// together, as = has it: a number is keyed by its exact value,
			// in decimal when it is an integer int64 can hold.
			switch v := g.Eval(row); v.Type() {
			case rel.TypeInt, rel.TypeBool:
				key += fmt.Sprintf("n%d;", v.AsInt())
			case rel.TypeFloat:
				if f := v.AsFloat(); f == math.Trunc(f) && f >= -0x1p63 && f < 0x1p63 {
					key += fmt.Sprintf("n%d;", int64(f))
				} else {
					key += fmt.Sprintf("n%v;", f)
				}
			default:
				key += fmt.Sprintf("%d/%q;", v.Type(), v.String())
			}
		}
		if _, seen := groups[key]; !seen {
			order = append(order, key)
		}
		groups[key] = append(groups[key], row)
	}
	if len(in) == 0 && len(n.GroupBy) == 0 {
		order = []string{""}
	}
	var out []rel.Row
	for _, key := range order {
		rows := groups[key]
		res := make(rel.Row, len(n.Items))
		for i, item := range n.Items {
			if item.Agg == nil {
				if len(rows) > 0 {
					res[i] = item.Key.Eval(rows[0])
				}
				continue
			}
			var cnt int64
			var sum float64
			var lo, hi rel.Value
			for _, row := range rows {
				v := rel.Int(1) // COUNT(*) counts the row itself
				if item.Agg.Arg != nil {
					v = item.Agg.Arg.Eval(row)
				}
				if v.IsNull() {
					continue
				}
				if cnt == 0 || rel.Compare(v, lo) < 0 {
					lo = v
				}
				if cnt == 0 || rel.Compare(v, hi) > 0 {
					hi = v
				}
				cnt++
				sum += v.AsFloat()
			}
			switch k := item.Agg.Kind; {
			case k == plan.AggCount:
				res[i] = rel.Int(cnt)
			case cnt > 0: // otherwise it stays NULL
				res[i] = map[plan.AggKind]rel.Value{plan.AggSum: rel.Float(sum),
					plan.AggAvg: rel.Float(sum / float64(cnt)), plan.AggMin: lo, plan.AggMax: hi}[k]
			}
		}
		out = append(out, res)
	}
	return out
}
