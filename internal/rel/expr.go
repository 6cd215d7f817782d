package rel

import (
	"fmt"
	"math"
	"strings"
)

// BinOpKind enumerates binary operators in bound expressions.
type BinOpKind uint8

// Binary operators.
const (
	OpEq BinOpKind = iota
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAdd
	OpSub
	OpMul
	OpDiv
	OpMod
	OpAnd
	OpOr
)

// String returns the SQL spelling of the operator.
func (k BinOpKind) String() string {
	switch k {
	case OpEq:
		return "="
	case OpNe:
		return "<>"
	case OpLt:
		return "<"
	case OpLe:
		return "<="
	case OpGt:
		return ">"
	case OpGe:
		return ">="
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	case OpMod:
		return "%"
	case OpAnd:
		return "AND"
	case OpOr:
		return "OR"
	default:
		return "?"
	}
}

// Expr is a bound (column-index-resolved) expression evaluated against rows.
type Expr interface {
	// Eval computes the expression over the row.
	Eval(Row) Value
	// String renders the expression for EXPLAIN output.
	String() string
}

// ColRef references a column by position.
type ColRef struct {
	Idx  int
	Name string // for display only
}

// Eval implements Expr.
func (c *ColRef) Eval(r Row) Value { return r[c.Idx] }

// String implements Expr.
func (c *ColRef) String() string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("#%d", c.Idx)
}

// Const is a literal value.
type Const struct{ Val Value }

// Eval implements Expr.
func (c *Const) Eval(Row) Value { return c.Val }

// String implements Expr.
func (c *Const) String() string {
	if c.Val.typ == TypeText {
		return "'" + c.Val.s + "'"
	}
	return c.Val.String()
}

// Param is a query-parameter placeholder in a bound expression. Plans keep
// Params in their expression trees so a prepared statement can be planned
// once and executed many times; SubstParams (and plan.BindParams above it)
// replace every Param with the call's argument value before execution.
// Eval on an unsubstituted Param yields NULL — executors must only ever see
// substituted trees.
type Param struct {
	Idx int // zero-based parameter ordinal
}

// Eval implements Expr. Params are substituted before execution; an
// unbound one evaluates to NULL rather than panicking.
func (p *Param) Eval(Row) Value { return Null() }

// String implements Expr using the $n spelling.
func (p *Param) String() string { return fmt.Sprintf("$%d", p.Idx+1) }

// HasParams reports whether the expression tree references any parameter.
func HasParams(e Expr) bool {
	switch t := e.(type) {
	case nil:
		return false
	case *Param:
		return true
	case *BinOp:
		return HasParams(t.L) || HasParams(t.R)
	case *Not:
		return HasParams(t.E)
	case *IsNullExpr:
		return HasParams(t.E)
	case *InList:
		return HasParams(t.E)
	default:
		return false
	}
}

// SubstParams returns the expression with every Param replaced by the
// corresponding argument value as a Const. Expressions without parameters
// are returned unchanged (no copy), so shared cached plans stay untouched.
// Out-of-range ordinals substitute NULL; callers validate argument counts
// up front.
func SubstParams(e Expr, args []Value) Expr {
	if e == nil || !HasParams(e) {
		return e
	}
	switch t := e.(type) {
	case *Param:
		if t.Idx >= 0 && t.Idx < len(args) {
			return &Const{Val: args[t.Idx]}
		}
		return &Const{Val: Null()}
	case *BinOp:
		return &BinOp{Kind: t.Kind, L: SubstParams(t.L, args), R: SubstParams(t.R, args)}
	case *Not:
		return &Not{E: SubstParams(t.E, args)}
	case *IsNullExpr:
		return &IsNullExpr{E: SubstParams(t.E, args), Negate: t.Negate}
	case *InList:
		return &InList{E: SubstParams(t.E, args), List: t.List}
	default:
		return e
	}
}

// BinOp applies a binary operator to two sub-expressions.
type BinOp struct {
	Kind BinOpKind
	L, R Expr
}

// Eval implements Expr with SQL three-valued logic: a comparison or
// arithmetic with a NULL operand yields NULL, and AND/OR are Kleene's (false
// AND NULL is false, true OR NULL is true, otherwise NULL wins). Consumers
// that need a decision — filters, join conditions — keep a row only when the
// result AsBool(), which NULL is not.
func (b *BinOp) Eval(r Row) Value {
	l := b.L.Eval(r)
	rv := b.R.Eval(r)
	switch b.Kind {
	case OpAnd:
		lt, rt := l.AsBool(), rv.AsBool()
		switch {
		case lt && rt:
			return Bool(true)
		case !lt && !l.IsNull(), !rt && !rv.IsNull():
			return Bool(false)
		default:
			return Null()
		}
	case OpOr:
		switch {
		case l.AsBool() || rv.AsBool():
			return Bool(true)
		case l.IsNull() || rv.IsNull():
			return Null()
		default:
			return Bool(false)
		}
	}
	if l.IsNull() || rv.IsNull() {
		return Null()
	}
	switch b.Kind {
	case OpEq:
		return Bool(Compare(l, rv) == 0)
	case OpNe:
		return Bool(Compare(l, rv) != 0)
	case OpLt:
		return Bool(Compare(l, rv) < 0)
	case OpLe:
		return Bool(Compare(l, rv) <= 0)
	case OpGt:
		return Bool(Compare(l, rv) > 0)
	case OpGe:
		return Bool(Compare(l, rv) >= 0)
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return arith(b.Kind, l, rv)
	default:
		return Null()
	}
}

func arith(k BinOpKind, l, r Value) Value {
	if l.typ == TypeInt && r.typ == TypeInt {
		li, ri := int64(l.n), int64(r.n)
		switch k {
		case OpAdd:
			return Int(li + ri)
		case OpSub:
			return Int(li - ri)
		case OpMul:
			return Int(li * ri)
		case OpDiv:
			if ri == 0 {
				return Null()
			}
			return Int(li / ri)
		case OpMod:
			if ri == 0 {
				return Null()
			}
			return Int(li % ri)
		}
	}
	lf, rf := l.AsFloat(), r.AsFloat()
	switch k {
	case OpAdd:
		return Float(lf + rf)
	case OpSub:
		return Float(lf - rf)
	case OpMul:
		return Float(lf * rf)
	case OpDiv:
		if rf == 0 {
			return Null()
		}
		return Float(lf / rf)
	case OpMod:
		if rf == 0 {
			return Null()
		}
		return Float(math.Mod(lf, rf))
	}
	return Null()
}

// String implements Expr.
func (b *BinOp) String() string {
	return fmt.Sprintf("(%s %s %s)", b.L, b.Kind, b.R)
}

// Not negates a boolean sub-expression.
type Not struct{ E Expr }

// Eval implements Expr. NOT NULL is NULL.
func (n *Not) Eval(r Row) Value {
	v := n.E.Eval(r)
	if v.IsNull() {
		return v
	}
	return Bool(!v.AsBool())
}

// String implements Expr.
func (n *Not) String() string { return "NOT " + n.E.String() }

// IsNullExpr tests a sub-expression for NULL (IS NULL / IS NOT NULL).
type IsNullExpr struct {
	E      Expr
	Negate bool
}

// Eval implements Expr.
func (e *IsNullExpr) Eval(r Row) Value {
	isNull := e.E.Eval(r).IsNull()
	if e.Negate {
		return Bool(!isNull)
	}
	return Bool(isNull)
}

// String implements Expr.
func (e *IsNullExpr) String() string {
	if e.Negate {
		return e.E.String() + " IS NOT NULL"
	}
	return e.E.String() + " IS NULL"
}

// InList tests membership of a sub-expression in a literal list.
type InList struct {
	E    Expr
	List []Value
}

// Eval implements Expr as the OR of its equalities: NULL when the operand is
// NULL, or when nothing matches and the list holds a NULL.
func (e *InList) Eval(r Row) Value {
	v := e.E.Eval(r)
	if v.IsNull() {
		return v
	}
	miss := Bool(false)
	for _, item := range e.List {
		if item.IsNull() {
			miss = Null()
		} else if Compare(v, item) == 0 {
			return Bool(true)
		}
	}
	return miss
}

// String implements Expr.
func (e *InList) String() string {
	parts := make([]string, len(e.List))
	for i, v := range e.List {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s IN (%s)", e.E, strings.Join(parts, ", "))
}

// SplitConjuncts flattens nested ANDs into a conjunct list; useful for
// predicate pushdown and selectivity estimation.
func SplitConjuncts(e Expr) []Expr {
	b, ok := e.(*BinOp)
	if !ok || b.Kind != OpAnd {
		return []Expr{e}
	}
	return append(SplitConjuncts(b.L), SplitConjuncts(b.R)...)
}

// CombineConjuncts joins expressions with AND; nil for an empty list.
func CombineConjuncts(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinOp{Kind: OpAnd, L: out, R: e}
		}
	}
	return out
}

// ReferencedCols collects the column indexes referenced by the expression.
func ReferencedCols(e Expr, out map[int]bool) {
	switch t := e.(type) {
	case *ColRef:
		out[t.Idx] = true
	case *Const:
	case *BinOp:
		ReferencedCols(t.L, out)
		ReferencedCols(t.R, out)
	case *Not:
		ReferencedCols(t.E, out)
	case *IsNullExpr:
		ReferencedCols(t.E, out)
	case *InList:
		ReferencedCols(t.E, out)
	}
}

// MapCols returns a copy of the expression with every column index rewritten
// through f; used to retarget predicates when join trees permute column
// layouts.
func MapCols(e Expr, f func(int) int) Expr {
	switch t := e.(type) {
	case *ColRef:
		return &ColRef{Idx: f(t.Idx), Name: t.Name}
	case *Const:
		return t
	case *BinOp:
		return &BinOp{Kind: t.Kind, L: MapCols(t.L, f), R: MapCols(t.R, f)}
	case *Not:
		return &Not{E: MapCols(t.E, f)}
	case *IsNullExpr:
		return &IsNullExpr{E: MapCols(t.E, f), Negate: t.Negate}
	case *InList:
		return &InList{E: MapCols(t.E, f), List: t.List}
	default:
		return e
	}
}
