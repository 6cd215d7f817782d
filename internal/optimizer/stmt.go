package optimizer

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
)

// ErrNotPlanned reports a utility statement (DDL, transaction control, SET,
// ANALYZE, EXPLAIN): the session executes those directly.
var ErrNotPlanned = errors.New("optimizer: not a planned statement")

// PlanStmt binds and plans one planned statement — SELECT, INSERT, UPDATE,
// DELETE or PREDICT. It is the only way a statement becomes a plan: a write
// finds its rows through the access path a SELECT's base table would get
// (same probes, same generic selectivities for parameters), and every
// expression goes through one binder.
func (o *Optimizer) PlanStmt(stmt sqlparse.Stmt, cat *catalog.Catalog) (plan.Node, error) {
	switch t := stmt.(type) {
	case *sqlparse.Select:
		q, err := Bind(t, cat)
		if err != nil {
			return nil, err
		}
		return o.Plan(q)
	case *sqlparse.Insert:
		return planInsert(t, cat)
	case *sqlparse.Update:
		q, base, src, err := o.writeTarget(cat, t.Table, t.Where)
		if err != nil {
			return nil, err
		}
		set := make(map[int]rel.Expr, len(t.Set))
		for name, e := range t.Set {
			ci, err := columnOf(q.Tables[0], name)
			if err != nil {
				return nil, err
			}
			if set[ci], err = q.bindExpr(e); err != nil {
				return nil, err
			}
		}
		return &plan.Update{Base: base, Table: q.Tables[0], Child: src, Set: set}, nil
	case *sqlparse.Delete:
		q, base, src, err := o.writeTarget(cat, t.Table, t.Where)
		if err != nil {
			return nil, err
		}
		return &plan.Delete{Base: base, Table: q.Tables[0], Child: src}, nil
	case *sqlparse.Predict:
		return o.planPredict(t, cat)
	default:
		return nil, fmt.Errorf("%w: %T", ErrNotPlanned, stmt)
	}
}

// writeTarget opens the one-table scope of an UPDATE or DELETE and picks the
// access node for its WHERE clause. The write node on top takes the access
// node's estimates and an empty schema: it reports a count, not rows.
func (o *Optimizer) writeTarget(cat *catalog.Catalog, table string, where sqlparse.Expr) (*Query, plan.Base, plan.Node, error) {
	t, err := cat.Get(table)
	if err != nil {
		return nil, plan.Base{}, nil, err
	}
	q := SingleTableQuery(t)
	bound, err := q.bindExpr(where)
	if err != nil {
		return nil, plan.Base{}, nil, err
	}
	src := o.AccessPath(t, bound)
	rows, cost := src.Estimates()
	return q, plan.Base{Out: &rel.Schema{}, EstRows: rows, EstCost: cost}, src, nil
}

// columnOf resolves a column a statement names outside an expression (an
// INSERT column list, a SET target, PREDICT's target and features).
func columnOf(t *catalog.Table, name string) (int, error) {
	ci := t.Schema.ColIndex(name)
	if ci < 0 {
		return 0, fmt.Errorf("optimizer: no column %q in %q", name, t.Name)
	}
	return ci, nil
}

// bindValues compiles a VALUES list into rows of the given width, the i-th
// value of each tuple landing at position at[i] (other cells stay NULL).
// Every cell goes through the binder, in a scope with no columns. A cell
// without a parameter is folded to its value here, so a bulk literal INSERT
// costs one allocation per row.
func bindValues(tuples [][]sqlparse.Expr, width int, at []int, arity func(row, got int) error) (plan.Values, error) {
	vals := plan.Values{Rows: make([]rel.Row, len(tuples))}
	scope := &Query{Global: &rel.Schema{}}
	for ri, tuple := range tuples {
		if len(tuple) != len(at) {
			return vals, arity(ri+1, len(tuple))
		}
		row := make(rel.Row, width)
		for i := range row {
			row[i] = rel.Null()
		}
		for i, e := range tuple {
			if lit, ok := e.(*sqlparse.Lit); ok {
				row[at[i]] = lit.Val
				continue
			}
			bound, err := scope.bindExpr(e)
			if err != nil {
				return vals, err
			}
			if rel.HasParams(bound) {
				vals.Holes = append(vals.Holes, plan.Hole{Row: ri, Col: at[i], E: bound})
			} else {
				row[at[i]] = bound.Eval(nil)
			}
		}
		vals.Rows[ri] = row
	}
	return vals, nil
}

// positions returns 0..n-1: VALUES given in column order.
func positions(n int) []int {
	at := make([]int, n)
	for i := range at {
		at[i] = i
	}
	return at
}

func planInsert(ins *sqlparse.Insert, cat *catalog.Catalog) (plan.Node, error) {
	t, err := cat.Get(ins.Table)
	if err != nil {
		return nil, err
	}
	at := positions(t.Schema.Arity())
	if len(ins.Cols) > 0 {
		at = at[:0]
		for _, name := range ins.Cols {
			ci, err := columnOf(t, name)
			if err != nil {
				return nil, err
			}
			if slices.Contains(at, ci) {
				return nil, fmt.Errorf("optimizer: column %q specified more than once", name)
			}
			at = append(at, ci)
		}
	}
	vals, err := bindValues(ins.Rows, t.Schema.Arity(), at, func(_, got int) error {
		return fmt.Errorf("optimizer: INSERT arity mismatch: %d values for %d columns", got, len(at))
	})
	n := float64(len(vals.Rows))
	return &plan.Insert{
		Base:   plan.Base{Out: &rel.Schema{}, EstRows: n, EstCost: n * cpuTupleCost},
		Table:  t,
		Values: vals,
	}, err
}

func (o *Optimizer) planPredict(pr *sqlparse.Predict, cat *catalog.Catalog) (plan.Node, error) {
	t, err := cat.Get(pr.Table)
	if err != nil {
		return nil, err
	}
	target, err := columnOf(t, pr.Target)
	if err != nil {
		return nil, err
	}
	// Feature columns: an explicit list, or * = everything except the target
	// and unique-constrained columns (paper §2.3).
	var features []int
	if pr.TrainAll {
		for i, c := range t.Schema.Cols {
			if i != target && !c.Unique {
				features = append(features, i)
			}
		}
	}
	for _, name := range pr.TrainCols {
		ci, err := columnOf(t, name)
		if err != nil {
			return nil, err
		}
		if ci != target {
			features = append(features, ci)
		}
	}
	n := &plan.Predict{
		Table:          t,
		TargetIdx:      target,
		FeatureIdxs:    features,
		Classification: pr.Kind == sqlparse.PredictClass,
		ModelName:      t.Name + "." + strings.ToLower(pr.Target),
	}
	// Both row sources are access paths chosen the way a SELECT's are: a
	// sliding-window PREDICT reads its window through the index, not the
	// table.
	q := SingleTableQuery(t)
	with, err := q.bindExpr(pr.With)
	if err != nil {
		return nil, err
	}
	where, err := q.bindExpr(pr.Where)
	if err != nil {
		return nil, err
	}
	n.Train = o.AccessPath(t, with)
	_, cost := n.Train.Estimates()
	// Inline rows are positional over the feature columns; checking the arity
	// here, where the statement is known, beats misaligning features deep in
	// the featurizer.
	n.Values, err = bindValues(pr.Values, len(features), positions(len(features)), func(row, got int) error {
		return fmt.Errorf("optimizer: PREDICT VALUES row %d has %d values for %d feature columns", row, got, len(features))
	})
	predicted := float64(len(n.Rows))
	if len(pr.Values) == 0 {
		n.Infer, n.NullTargets = o.AccessPath(t, where), pr.Where == nil
		inferRows, inferCost := n.Infer.Estimates()
		predicted, cost = inferRows, cost+inferCost
	}
	n.Base = plan.Base{
		Out:     rel.NewSchema(rel.Column{Name: "prediction", Typ: rel.TypeFloat}),
		EstRows: predicted,
		EstCost: cost,
	}
	return n, err
}
