// Package optimizer turns parsed statements into physical plans (PlanStmt is
// the entry point for every planned statement kind). It provides name binding, a histogram-driven cardinality model, a
// PostgreSQL-style cost model, dynamic-programming join enumeration, and
// hint-set candidate generation. The Figure 8 harness's learned optimizers
// (internal/bench/learnedopt, Bao, Lero) consume its candidate plans; the
// cost-based path with stale statistics is that figure's "PostgreSQL"
// baseline.
package optimizer

import (
	"fmt"
	"strings"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
)

// JoinPred is an equi-join predicate between two tables, in global column
// coordinates (table index + column within that table).
type JoinPred struct {
	LT, LC int // left table index, column index within that table
	RT, RC int
}

// OutputExpr is one SELECT item bound to the global column space.
type OutputExpr struct {
	E     rel.Expr
	Alias string
	Agg   *AggBind // non-nil when the item is an aggregate
}

// AggBind describes an aggregate item.
type AggBind struct {
	Kind string   // COUNT, SUM, AVG, MIN, MAX
	Arg  rel.Expr // nil for COUNT(*)
}

// Query is a bound SELECT: tables, predicates split into per-table local
// filters, equi-join predicates, and residual (cross-table or non-equi)
// predicates over the global schema (tables concatenated in FROM order).
type Query struct {
	Tables  []*catalog.Table
	Aliases []string
	Offsets []int // column offset of each table in the global schema
	Global  *rel.Schema

	Local    [][]rel.Expr // per-table filters, bound to that table's schema
	Joins    []JoinPred
	Residual []rel.Expr // bound to the global schema

	Items   []OutputExpr
	GroupBy []rel.Expr
	OrderBy []boundOrder
	Limit   int64
	HasAgg  bool
}

type boundOrder struct {
	E    rel.Expr
	Desc bool
}

// Bind resolves a parsed SELECT against the catalog.
func Bind(sel *sqlparse.Select, cat *catalog.Catalog) (*Query, error) {
	q := &Query{Limit: sel.Limit}
	refs := append([]sqlparse.TableRef(nil), sel.From...)
	var joinOns []sqlparse.Expr
	for _, j := range sel.Joins {
		refs = append(refs, j.Table)
		joinOns = append(joinOns, j.On)
	}
	if len(refs) == 0 {
		return nil, fmt.Errorf("optimizer: query has no tables")
	}
	if len(refs) > 12 {
		return nil, fmt.Errorf("optimizer: too many tables (%d > 12)", len(refs))
	}
	seen := map[string]bool{}
	offset := 0
	global := &rel.Schema{}
	for _, ref := range refs {
		t, err := cat.Get(ref.Name)
		if err != nil {
			return nil, err
		}
		alias := strings.ToLower(ref.RefName())
		if seen[alias] {
			return nil, fmt.Errorf("optimizer: duplicate table alias %q", alias)
		}
		seen[alias] = true
		q.Tables = append(q.Tables, t)
		q.Aliases = append(q.Aliases, alias)
		q.Offsets = append(q.Offsets, offset)
		for _, c := range t.Schema.Cols {
			cc := c
			cc.Name = alias + "." + strings.ToLower(c.Name)
			global.Cols = append(global.Cols, cc)
		}
		offset += t.Schema.Arity()
	}
	q.Global = global
	q.Local = make([][]rel.Expr, len(q.Tables))

	// Gather all predicates: WHERE plus JOIN ... ON conditions.
	var preds []sqlparse.Expr
	if sel.Where != nil {
		preds = append(preds, sel.Where)
	}
	preds = append(preds, joinOns...)
	for _, p := range preds {
		bound, err := q.bindExpr(p)
		if err != nil {
			return nil, err
		}
		for _, conj := range rel.SplitConjuncts(bound) {
			q.classify(conj)
		}
	}

	// Output items.
	for _, item := range sel.Items {
		if item.Star {
			for i, col := range global.Cols {
				q.Items = append(q.Items, OutputExpr{
					E:     &rel.ColRef{Idx: i, Name: col.Name},
					Alias: col.Name,
				})
			}
			continue
		}
		if fc, ok := item.E.(*sqlparse.FuncCall); ok && isAggName(fc.Name) {
			ab := &AggBind{Kind: fc.Name}
			if !fc.Star {
				if len(fc.Args) != 1 {
					return nil, fmt.Errorf("optimizer: %s expects one argument", fc.Name)
				}
				arg, err := q.bindExpr(fc.Args[0])
				if err != nil {
					return nil, err
				}
				ab.Arg = arg
			} else if fc.Name != "COUNT" {
				return nil, fmt.Errorf("optimizer: %s(*) is not valid", fc.Name)
			}
			alias := item.Alias
			if alias == "" {
				alias = strings.ToLower(fc.Name)
			}
			q.Items = append(q.Items, OutputExpr{Alias: alias, Agg: ab})
			q.HasAgg = true
			continue
		}
		bound, err := q.bindExpr(item.E)
		if err != nil {
			return nil, err
		}
		alias := item.Alias
		if alias == "" {
			alias = bound.String()
		}
		q.Items = append(q.Items, OutputExpr{E: bound, Alias: alias})
	}

	for _, g := range sel.GroupBy {
		bound, err := q.bindExpr(g)
		if err != nil {
			return nil, err
		}
		q.GroupBy = append(q.GroupBy, bound)
	}
	// A GROUP BY makes the query an aggregate even without an aggregate
	// call: SELECT g FROM t GROUP BY g returns each group once.
	q.HasAgg = q.HasAgg || len(q.GroupBy) > 0
	for _, o := range sel.OrderBy {
		bound, err := q.bindExpr(o.E)
		if err != nil {
			return nil, err
		}
		q.OrderBy = append(q.OrderBy, boundOrder{E: bound, Desc: o.Desc})
	}
	return q, nil
}

func isAggName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// resolveColumn maps a possibly-qualified name to a global column index.
func (q *Query) resolveColumn(c *sqlparse.ColName) (int, error) {
	name := strings.ToLower(c.Name)
	if c.Table != "" {
		tbl := strings.ToLower(c.Table)
		for i, alias := range q.Aliases {
			if alias == tbl {
				ci := q.Tables[i].Schema.ColIndex(name)
				if ci < 0 {
					return 0, fmt.Errorf("optimizer: column %q not in table %q", name, tbl)
				}
				return q.Offsets[i] + ci, nil
			}
		}
		return 0, fmt.Errorf("optimizer: unknown table alias %q", tbl)
	}
	found := -1
	for i, t := range q.Tables {
		if ci := t.Schema.ColIndex(name); ci >= 0 {
			if found >= 0 {
				return 0, fmt.Errorf("optimizer: ambiguous column %q", name)
			}
			found = q.Offsets[i] + ci
		}
	}
	if found < 0 {
		return 0, fmt.Errorf("optimizer: unknown column %q", name)
	}
	return found, nil
}

// bindExpr converts a parsed expression into a bound one over the global
// schema (an absent clause, nil, stays nil).
func (q *Query) bindExpr(e sqlparse.Expr) (rel.Expr, error) {
	switch t := e.(type) {
	case nil:
		return nil, nil
	case *sqlparse.ColName:
		idx, err := q.resolveColumn(t)
		if err != nil {
			return nil, err
		}
		return &rel.ColRef{Idx: idx, Name: q.Global.Cols[idx].Name}, nil
	case *sqlparse.Lit:
		return &rel.Const{Val: t.Val}, nil
	case *sqlparse.Param:
		return &rel.Param{Idx: t.Idx}, nil
	case *sqlparse.Binary:
		l, err := q.bindExpr(t.L)
		if err != nil {
			return nil, err
		}
		r, err := q.bindExpr(t.R)
		if err != nil {
			return nil, err
		}
		kind, err := binOpKind(t.Op)
		if err != nil {
			return nil, err
		}
		return &rel.BinOp{Kind: kind, L: l, R: r}, nil
	case *sqlparse.Unary:
		inner, err := q.bindExpr(t.E)
		if err != nil {
			return nil, err
		}
		if t.Op == "NOT" {
			return &rel.Not{E: inner}, nil
		}
		return &rel.BinOp{Kind: rel.OpSub, L: &rel.Const{Val: rel.Int(0)}, R: inner}, nil
	case *sqlparse.IsNull:
		inner, err := q.bindExpr(t.E)
		if err != nil {
			return nil, err
		}
		return &rel.IsNullExpr{E: inner, Negate: t.Negate}, nil
	case *sqlparse.InList:
		inner, err := q.bindExpr(t.E)
		if err != nil {
			return nil, err
		}
		return &rel.InList{E: inner, List: t.Vals}, nil
	case *sqlparse.FuncCall:
		return nil, fmt.Errorf("optimizer: function %s not allowed here", t.Name)
	default:
		return nil, fmt.Errorf("optimizer: unsupported expression %T", e)
	}
}

func binOpKind(op string) (rel.BinOpKind, error) {
	switch op {
	case "=":
		return rel.OpEq, nil
	case "<>":
		return rel.OpNe, nil
	case "<":
		return rel.OpLt, nil
	case "<=":
		return rel.OpLe, nil
	case ">":
		return rel.OpGt, nil
	case ">=":
		return rel.OpGe, nil
	case "+":
		return rel.OpAdd, nil
	case "-":
		return rel.OpSub, nil
	case "*":
		return rel.OpMul, nil
	case "/":
		return rel.OpDiv, nil
	case "%":
		return rel.OpMod, nil
	case "AND":
		return rel.OpAnd, nil
	case "OR":
		return rel.OpOr, nil
	default:
		return 0, fmt.Errorf("optimizer: unknown operator %q", op)
	}
}

// tableOfGlobal returns which table a global column index belongs to, and
// the column index within that table.
func (q *Query) tableOfGlobal(idx int) (int, int) {
	for i := len(q.Offsets) - 1; i >= 0; i-- {
		if idx >= q.Offsets[i] {
			return i, idx - q.Offsets[i]
		}
	}
	return 0, idx
}

// classify routes one conjunct into local / join / residual buckets.
func (q *Query) classify(e rel.Expr) {
	refs := map[int]bool{}
	rel.ReferencedCols(e, refs)
	tables := map[int]bool{}
	for idx := range refs {
		ti, _ := q.tableOfGlobal(idx)
		tables[ti] = true
	}
	switch len(tables) {
	case 0:
		q.Residual = append(q.Residual, e)
	case 1:
		var ti int
		for t := range tables {
			ti = t
		}
		// Rebase to the table's local schema.
		local := rel.MapCols(e, func(i int) int { return i - q.Offsets[ti] })
		q.Local[ti] = append(q.Local[ti], local)
	case 2:
		// Equi-join between two plain columns?
		if b, ok := e.(*rel.BinOp); ok && b.Kind == rel.OpEq {
			lc, lok := b.L.(*rel.ColRef)
			rc, rok := b.R.(*rel.ColRef)
			if lok && rok {
				lt, lci := q.tableOfGlobal(lc.Idx)
				rt, rci := q.tableOfGlobal(rc.Idx)
				if lt != rt {
					q.Joins = append(q.Joins, JoinPred{LT: lt, LC: lci, RT: rt, RC: rci})
					return
				}
			}
		}
		q.Residual = append(q.Residual, e)
	default:
		q.Residual = append(q.Residual, e)
	}
}

// SingleTableQuery builds a binding context over one table: the scope of
// UPDATE, DELETE and PREDICT clauses, whose columns need no qualifier.
func SingleTableQuery(t *catalog.Table) *Query {
	global := &rel.Schema{}
	for _, c := range t.Schema.Cols {
		cc := c
		cc.Name = strings.ToLower(c.Name)
		global.Cols = append(global.Cols, cc)
	}
	return &Query{
		Tables:  []*catalog.Table{t},
		Aliases: []string{strings.ToLower(t.Name)},
		Offsets: []int{0},
		Global:  global,
		Local:   make([][]rel.Expr, 1),
		Limit:   -1,
	}
}
