// Package plan defines physical query-plan trees shared by the cost-based
// optimizer, the learned optimizers, and the executor, plus the feature
// encoding that turns plans into token sequences for the learned optimizer's
// tree-transformer encoder (paper Fig. 5). A plan is read-only once built:
// every execution of a cached plan shares it, and the executor resolves its
// query parameters (rel.Param) as it compiles each operator.
package plan

import (
	"fmt"
	"strings"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
)

// Node is a physical plan operator. EstRows/EstCost are annotated by the
// optimizer that produced the plan and double as model features.
//
//lint:closedenum
type Node interface {
	// Schema is the output schema.
	Schema() *rel.Schema
	// Children returns input operators (empty for leaves).
	Children() []Node
	// Estimates returns (estimated rows, estimated cost).
	Estimates() (float64, float64)
	// Label names the operator for EXPLAIN and encoding.
	Label() string
}

// Base carries the fields every node shares.
type Base struct {
	Out     *rel.Schema
	EstRows float64
	EstCost float64
}

// Schema implements Node.
func (b *Base) Schema() *rel.Schema { return b.Out }

// Estimates implements Node.
func (b *Base) Estimates() (float64, float64) { return b.EstRows, b.EstCost }

// SeqScan reads a full table, applying an optional pushed-down filter.
type SeqScan struct {
	Base
	Table  *catalog.Table
	Filter rel.Expr // bound to the table schema; may be nil
}

// Children implements Node.
func (*SeqScan) Children() []Node { return nil }

// Label implements Node.
func (s *SeqScan) Label() string {
	if s.Filter != nil {
		return fmt.Sprintf("SeqScan(%s, %s)", s.Table.Name, s.Filter)
	}
	return fmt.Sprintf("SeqScan(%s)", s.Table.Name)
}

// IndexScan reads rows matching a key or range on an indexed column.
type IndexScan struct {
	Base
	Table *catalog.Table
	Index *catalog.Index
	// Eq, Lo and Hi are the probe's bounds as the query spells them: a
	// *rel.Const, or a *rel.Param the executor resolves from the
	// statement's arguments, so a prepared lookup keeps its index scan
	// across executions. Eq is an equality probe (nil for a range). Lo and
	// Hi bound a range, inclusive at both ends; either may be absent (a
	// half-open range). A strict SQL bound is probed inclusively and
	// re-checked by Filter.
	Eq, Lo, Hi rel.Expr
	Filter     rel.Expr // residual filter; may be nil
}

// Children implements Node.
func (*IndexScan) Children() []Node { return nil }

// Label implements Node. A literal bound prints unquoted, a parameter as
// $n, an absent range bound as -inf or +inf.
func (s *IndexScan) Label() string {
	col := s.Table.Schema.Col(s.Index.Col).Name
	bound := func(e rel.Expr, open string) string {
		switch b := e.(type) {
		case nil:
			return open
		case *rel.Const:
			return b.Val.String()
		default:
			return e.String()
		}
	}
	cond := fmt.Sprintf("%s in [%s,%s]", col, bound(s.Lo, "-inf"), bound(s.Hi, "+inf"))
	if s.Eq != nil {
		cond = fmt.Sprintf("%s=%s", col, bound(s.Eq, ""))
	}
	if s.Filter != nil {
		return fmt.Sprintf("IndexScan(%s, %s, %s)", s.Table.Name, cond, s.Filter)
	}
	return fmt.Sprintf("IndexScan(%s, %s)", s.Table.Name, cond)
}

// HashJoin is an equi-join: build on the right input, probe with the left.
type HashJoin struct {
	Base
	L, R       Node
	LKey, RKey int      // key column positions in the respective schemas
	Residual   rel.Expr // bound to concat(L,R) schema; may be nil
}

// Children implements Node.
func (j *HashJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *HashJoin) Label() string {
	return fmt.Sprintf("HashJoin(l.#%d = r.#%d)", j.LKey, j.RKey)
}

// NLJoin is a nested-loop join with an arbitrary condition.
type NLJoin struct {
	Base
	L, R Node
	On   rel.Expr // bound to concat(L,R) schema; may be nil (cross join)
}

// Children implements Node.
func (j *NLJoin) Children() []Node { return []Node{j.L, j.R} }

// Label implements Node.
func (j *NLJoin) Label() string {
	if j.On != nil {
		return fmt.Sprintf("NLJoin(%s)", j.On)
	}
	return "NLJoin(cross)"
}

// IndexJoin probes an index on the inner table for each outer row.
type IndexJoin struct {
	Base
	L        Node
	Table    *catalog.Table // inner table
	Index    *catalog.Index
	LKey     int      // key column position in L's schema
	Residual rel.Expr // bound to concat(L, inner) schema; may be nil
	Filter   rel.Expr // inner-table filter; bound to inner schema
}

// Children implements Node.
func (j *IndexJoin) Children() []Node { return []Node{j.L} }

// Label implements Node.
func (j *IndexJoin) Label() string {
	return fmt.Sprintf("IndexJoin(%s, l.#%d)", j.Table.Name, j.LKey)
}

// Filter applies a predicate.
type Filter struct {
	Base
	Child Node
	Pred  rel.Expr
}

// Children implements Node.
func (f *Filter) Children() []Node { return []Node{f.Child} }

// Label implements Node.
func (f *Filter) Label() string { return fmt.Sprintf("Filter(%s)", f.Pred) }

// Project computes output expressions.
type Project struct {
	Base
	Child Node
	Exprs []rel.Expr
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Child} }

// Label implements Node.
func (p *Project) Label() string {
	parts := make([]string, len(p.Exprs))
	for i, e := range p.Exprs {
		parts[i] = e.String()
	}
	return "Project(" + strings.Join(parts, ", ") + ")"
}

// AggKind enumerates aggregate functions.
//
//lint:closedenum
type AggKind uint8

// Aggregate kinds.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String names the aggregate.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	default:
		return "MAX"
	}
}

// AggSpec is one aggregate output.
type AggSpec struct {
	Kind AggKind
	Arg  rel.Expr // nil for COUNT(*)
}

// AggItem is one output column of an Agg node: either an aggregate or a
// group-key expression (evaluated on the group's first row).
type AggItem struct {
	Agg *AggSpec // nil means key expression
	Key rel.Expr // used when Agg is nil
}

// Agg groups and aggregates.
type Agg struct {
	Base
	Child   Node
	GroupBy []rel.Expr
	Items   []AggItem
}

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Child} }

// Label implements Node.
func (a *Agg) Label() string {
	return fmt.Sprintf("Agg(groups=%d, items=%d)", len(a.GroupBy), len(a.Items))
}

// SortKey is one ordering key.
type SortKey struct {
	E    rel.Expr
	Desc bool
}

// Sort orders rows.
type Sort struct {
	Base
	Child Node
	Keys  []SortKey
}

// Children implements Node.
func (s *Sort) Children() []Node { return []Node{s.Child} }

// Label implements Node.
func (s *Sort) Label() string { return fmt.Sprintf("Sort(keys=%d)", len(s.Keys)) }

// Limit caps output size.
type Limit struct {
	Base
	Child Node
	N     int64
}

// Children implements Node.
func (l *Limit) Children() []Node { return []Node{l.Child} }

// Label implements Node.
func (l *Limit) Label() string { return fmt.Sprintf("Limit(%d)", l.N) }

// Explain renders the plan tree as indented text.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int) {
	rows, cost := n.Estimates()
	fmt.Fprintf(sb, "%s%s  (rows=%.0f cost=%.1f)\n", strings.Repeat("  ", depth), n.Label(), rows, cost)
	for _, c := range n.Children() {
		explain(sb, c, depth+1)
	}
}

// Walk visits the plan tree pre-order.
func Walk(n Node, visit func(Node, int)) { walk(n, 0, visit) }

func walk(n Node, depth int, visit func(Node, int)) {
	visit(n, depth)
	for _, c := range n.Children() {
		walk(c, depth+1, visit)
	}
}
