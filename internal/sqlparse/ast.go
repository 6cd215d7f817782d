package sqlparse

import (
	"strings"

	"neurdb/internal/rel"
)

// Stmt is any parsed SQL statement: a planned one (Select, Insert, Update,
// Delete, Predict), which the optimizer compiles to a plan, or a utility one,
// which the session executes directly.
//
//lint:closedenum
type Stmt interface{ stmt() }

// Expr is an unbound (name-based) expression tree. The planner binds column
// names to positions, producing rel.Expr.
type Expr interface{ expr() }

// ColName references a column, optionally qualified ("t.col").
type ColName struct {
	Table string
	Name  string
}

func (*ColName) expr() {}

// String renders the possibly-qualified name.
func (c *ColName) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Name
	}
	return c.Name
}

// Lit is a literal value.
type Lit struct{ Val rel.Value }

func (*Lit) expr() {}

// Binary is a binary operation with SQL operator spelling.
type Binary struct {
	Op   string // "=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR"
	L, R Expr
}

func (*Binary) expr() {}

// Unary is NOT or unary minus.
type Unary struct {
	Op string // "NOT", "-"
	E  Expr
}

func (*Unary) expr() {}

// IsNull is "expr IS [NOT] NULL".
type IsNull struct {
	E      Expr
	Negate bool
}

func (*IsNull) expr() {}

// InList is "expr IN (v1, v2, ...)".
type InList struct {
	E    Expr
	Vals []rel.Value
}

func (*InList) expr() {}

// FuncCall is an aggregate or scalar function call.
type FuncCall struct {
	Name string // upper-cased
	Args []Expr
	Star bool // COUNT(*)
}

func (*FuncCall) expr() {}

// Param is a query-parameter placeholder ('?' or '$n'), bound to a concrete
// value at execution time. Idx is the zero-based parameter ordinal: '?'
// placeholders number themselves left to right, '$n' maps to ordinal n-1.
type Param struct {
	Idx int
}

func (*Param) expr() {}

// walkExpr visits e and every sub-expression pre-order.
func walkExpr(e Expr, f func(Expr)) {
	if e == nil {
		return
	}
	f(e)
	switch t := e.(type) {
	case *Binary:
		walkExpr(t.L, f)
		walkExpr(t.R, f)
	case *Unary:
		walkExpr(t.E, f)
	case *IsNull:
		walkExpr(t.E, f)
	case *InList:
		walkExpr(t.E, f)
	case *FuncCall:
		for _, a := range t.Args {
			walkExpr(a, f)
		}
	}
}

// WalkExprs calls f on every expression appearing in the statement,
// including sub-expressions. It is the traversal ParamCount and other
// whole-statement analyses build on.
func WalkExprs(s Stmt, f func(Expr)) {
	switch t := s.(type) {
	case *Select:
		for _, it := range t.Items {
			walkExpr(it.E, f)
		}
		for _, j := range t.Joins {
			walkExpr(j.On, f)
		}
		walkExpr(t.Where, f)
		for _, g := range t.GroupBy {
			walkExpr(g, f)
		}
		for _, o := range t.OrderBy {
			walkExpr(o.E, f)
		}
	case *Insert:
		for _, row := range t.Rows {
			for _, e := range row {
				walkExpr(e, f)
			}
		}
	case *Update:
		for _, col := range t.Cols {
			walkExpr(t.Set[col], f)
		}
		walkExpr(t.Where, f)
	case *Delete:
		walkExpr(t.Where, f)
	case *Predict:
		walkExpr(t.Where, f)
		walkExpr(t.With, f)
		for _, row := range t.Values {
			for _, e := range row {
				walkExpr(e, f)
			}
		}
	case *Explain:
		WalkExprs(t.Inner, f)
	case *CreateTable, *CreateIndex, *DropTable, *TxnStmt, *Analyze, *SetStmt:
		// No expressions.
	}
}

// ParamCount returns the number of parameter slots the statement needs:
// one past the highest parameter ordinal referenced (0 when the statement
// has no placeholders).
func ParamCount(s Stmt) int {
	n := 0
	WalkExprs(s, func(e Expr) {
		if p, ok := e.(*Param); ok && p.Idx+1 > n {
			n = p.Idx + 1
		}
	})
	return n
}

// ColumnDef is one column in CREATE TABLE.
type ColumnDef struct {
	Name    string
	Typ     rel.Type
	Unique  bool
	NotNull bool
}

// CreateTable is CREATE TABLE.
type CreateTable struct {
	Name string
	Cols []ColumnDef
}

func (*CreateTable) stmt() {}

// CreateIndex is CREATE INDEX name ON table (col) [USING BTREE]. Every
// index is a B-tree; USING names no other method.
type CreateIndex struct {
	Name  string
	Table string
	Col   string
}

func (*CreateIndex) stmt() {}

// DropTable is DROP TABLE [IF EXISTS] name.
type DropTable struct {
	Name     string
	IfExists bool
}

func (*DropTable) stmt() {}

// Insert is INSERT INTO t [(cols)] VALUES (...), (...).
type Insert struct {
	Table string
	Cols  []string // empty = positional
	Rows  [][]Expr
}

func (*Insert) stmt() {}

// SelectItem is one output column of a SELECT.
type SelectItem struct {
	E     Expr
	Alias string
	Star  bool
}

// TableRef is one relation in the FROM clause with an optional alias.
type TableRef struct {
	Name  string
	Alias string
}

// RefName returns the name the query refers to this table by.
func (t TableRef) RefName() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Name
}

// JoinClause is "JOIN t ON cond".
type JoinClause struct {
	Table TableRef
	On    Expr
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	E    Expr
	Desc bool
}

// Select is a SELECT statement (SPJ + aggregation + order/limit).
type Select struct {
	Items   []SelectItem
	From    []TableRef // comma-list
	Joins   []JoinClause
	Where   Expr
	GroupBy []Expr
	OrderBy []OrderItem
	Limit   int64 // -1 = none
}

func (*Select) stmt() {}

// Update is UPDATE t SET col = expr, ... [WHERE ...].
type Update struct {
	Table string
	Set   map[string]Expr
	Cols  []string // deterministic order of Set keys
	Where Expr
}

func (*Update) stmt() {}

// Delete is DELETE FROM t [WHERE ...].
type Delete struct {
	Table string
	Where Expr
}

func (*Delete) stmt() {}

// TxnStmt is BEGIN/COMMIT/ROLLBACK.
type TxnStmt struct {
	Kind string // "BEGIN", "COMMIT", "ROLLBACK"
}

func (*TxnStmt) stmt() {}

// Analyze is ANALYZE [table].
type Analyze struct {
	Table string // empty = all
}

func (*Analyze) stmt() {}

// Explain wraps a statement for plan display. InnerPos is the byte offset of
// the inner statement in the text given to Parse: EXPLAIN compiles it under
// its own text, so it shares the plan-cache entry executing it would use.
type Explain struct {
	Inner    Stmt
	InnerPos int
}

func (*Explain) stmt() {}

// SetStmt is SET key = value (engine knobs, e.g. optimizer mode).
type SetStmt struct {
	Key   string
	Value string
}

func (*SetStmt) stmt() {}

// PredictKind distinguishes regression from classification.
//
//lint:closedenum
type PredictKind uint8

// Predict task kinds (paper §2.3).
const (
	PredictValue PredictKind = iota // PREDICT VALUE OF — regression
	PredictClass                    // PREDICT CLASS OF — classification
)

// String names the kind.
func (k PredictKind) String() string {
	if k == PredictClass {
		return "CLASS"
	}
	return "VALUE"
}

// Predict is the paper's AI-analytics statement:
//
//	PREDICT {VALUE|CLASS} OF target
//	FROM table
//	[WHERE pred]           -- rows whose target to predict
//	TRAIN ON cols | *      -- feature columns (asterisk skips unique cols)
//	[WITH pred]            -- training-data filter
//	[VALUES (...), (...)]  -- inline feature rows to predict
type Predict struct {
	Kind      PredictKind
	Target    string
	Table     string
	Where     Expr
	TrainAll  bool
	TrainCols []string
	With      Expr
	Values    [][]Expr
}

func (*Predict) stmt() {}

// keyword reports whether the token is the given keyword (case-insensitive).
func (t Token) keyword(kw string) bool {
	return t.Kind == TokIdent && strings.EqualFold(t.Text, kw)
}
