package plan

import (
	"fmt"
	"sort"
	"strings"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
)

// Values is a VALUES list compiled to rows: constant cells are folded into
// Rows at bind time, and only cells that depend on a parameter stay behind as
// expressions (Holes), which the executor fills from the statement's
// arguments on a copy of their rows. A literal-only list is just its data.
type Values struct {
	Rows  []rel.Row
	Holes []Hole
}

// Hole is one parameter-dependent VALUES cell: E references no column.
// Holes are in row order.
type Hole struct {
	Row, Col int
	E        rel.Expr
}

// Insert appends Values.Rows (full-width, in schema order) to Table. Like
// the other write nodes and Predict it runs to completion instead of
// streaming rows: through executor.Execute, not BuildBatch.
type Insert struct {
	Base
	Table *catalog.Table
	Values
}

// Children implements Node.
func (*Insert) Children() []Node { return nil }

// Label implements Node.
func (n *Insert) Label() string { return fmt.Sprintf("Insert(%s, rows=%d)", n.Table.Name, len(n.Rows)) }

// Update rewrites the rows of Table that Child — its access node, a SeqScan
// or IndexScan over Table — selects. Set maps a column position to its new
// value, an expression over the old row.
type Update struct {
	Base
	Table *catalog.Table
	Child Node
	Set   map[int]rel.Expr
}

// Children implements Node.
func (n *Update) Children() []Node { return []Node{n.Child} }

// Label implements Node. Assignments print in column order.
func (n *Update) Label() string {
	cols := make([]int, 0, len(n.Set))
	for c := range n.Set {
		cols = append(cols, c)
	}
	sort.Ints(cols)
	parts := make([]string, len(cols))
	for i, c := range cols {
		parts[i] = fmt.Sprintf("%s = %s", n.Table.Schema.Col(c).Name, n.Set[c])
	}
	return fmt.Sprintf("Update(%s, %s)", n.Table.Name, strings.Join(parts, ", "))
}

// Delete removes the rows of Table that Child, its access node, selects.
type Delete struct {
	Base
	Table *catalog.Table
	Child Node
}

// Children implements Node.
func (n *Delete) Children() []Node { return []Node{n.Child} }

// Label implements Node.
func (n *Delete) Label() string { return fmt.Sprintf("Delete(%s)", n.Table.Name) }

// Predict is a bound PREDICT statement: the executor's AI operators (train /
// inference / fine-tune, paper Fig. 1) run it against the AI engine. Its rows
// come from two access nodes over Table, chosen like a SELECT's: Train for
// the WITH clause, Infer for the WHERE clause. Two conditions no clause
// spells stay with the operator as residuals: a training row needs a
// non-NULL target, and with neither WHERE nor VALUES the rows to predict are
// those whose target is NULL (NullTargets).
type Predict struct {
	Base
	Table          *catalog.Table
	TargetIdx      int
	FeatureIdxs    []int
	Classification bool
	Train          Node // rows to train on
	Infer          Node // rows to predict; nil when Values supplies them
	NullTargets    bool // no WHERE, no VALUES: predict Infer's rows with a NULL target
	Values              // inline rows to predict, in FeatureIdxs order
	ModelName      string
}

// Children implements Node: Train, then Infer when there is one.
func (n *Predict) Children() []Node {
	if n.Infer == nil {
		return []Node{n.Train}
	}
	return []Node{n.Train, n.Infer}
}

// Kind is the task's SQL spelling: VALUE (regression) or CLASS.
func (n *Predict) Kind() string {
	if n.Classification {
		return "CLASS"
	}
	return "VALUE"
}

// Label implements Node.
func (n *Predict) Label() string {
	return fmt.Sprintf("Predict(%s OF %s, features=%d)", n.Kind(), n.ModelName, len(n.FeatureIdxs))
}
