package executor

import "neurdb/internal/rel"

// pred is a compiled row predicate: keep(row) is, by definition,
// e.Eval(row).AsBool() for the expression e it was compiled from, and
// e.Eval stays the fallback for everything the kernel does not cover. The
// zero pred — what a nil expression compiles to — keeps every row. A pred is
// held by value and compiling allocates nothing. The one kernel is col op
// const, op a comparison and const INT or FLOAT (const op col is flipped
// first): when the row's value is INT or FLOAT it is compared as float64
// with rel.Compare's semantics — NaN compares equal to everything, so = is
// !(a<c)&&!(a>c), not a==c. Any other value (NULL, BOOL, TEXT in a numeric
// column) and every other shape, AND and OR included, go to Eval.
//
// A pred is read-only after compilePred, so morsel workers share one.
type pred struct {
	e     rel.Expr      // source expression; nil keeps every row
	col   int           // kernel: the compared column
	c     float64       // kernel: the constant
	op    rel.BinOpKind // kernel: comparison with col on the left
	isCmp bool          // the col op const kernel applies
}

// compilePred compiles e; callers do so once per operator, never per page or
// per row.
func compilePred(e rel.Expr) pred {
	p := pred{e: e}
	b, ok := e.(*rel.BinOp)
	if !ok {
		return p
	}
	col, k, op := b.L, b.R, b.Kind
	flip, isCmp := flippedCmp[op]
	if _, ok := col.(*rel.Const); ok {
		col, k, op = b.R, b.L, flip
	}
	c, ok1 := col.(*rel.ColRef)
	v, ok2 := k.(*rel.Const)
	if isCmp && ok1 && ok2 && (v.Val.Typ == rel.TypeInt || v.Val.Typ == rel.TypeFloat) {
		p.isCmp, p.col, p.op, p.c = true, c.Idx, op, v.Val.AsFloat()
	}
	return p
}

// flippedCmp maps each comparison to the one that holds for (b, a) when it
// holds for (a, b).
var flippedCmp = map[rel.BinOpKind]rel.BinOpKind{rel.OpEq: rel.OpEq, rel.OpNe: rel.OpNe,
	rel.OpLt: rel.OpGt, rel.OpLe: rel.OpGe, rel.OpGt: rel.OpLt, rel.OpGe: rel.OpLe}

// keep decides the row; small enough to inline, so a join without a
// residual pays no call per joined row.
func (p *pred) keep(row rel.Row) bool { return p.e == nil || p.eval(row) }

func (p *pred) eval(row rel.Row) bool {
	if !p.isCmp {
		return p.e.Eval(row).AsBool()
	}
	var a float64
	switch v := &row[p.col]; v.Typ {
	case rel.TypeInt:
		a = float64(v.I)
	case rel.TypeFloat:
		a = v.F
	default:
		return p.e.Eval(row).AsBool()
	}
	switch p.op {
	case rel.OpEq:
		return !(a < p.c) && !(a > p.c)
	case rel.OpNe:
		return a < p.c || a > p.c
	case rel.OpLt:
		return a < p.c
	case rel.OpLe:
		return !(a > p.c)
	case rel.OpGt:
		return a > p.c
	default: // OpGe
		return !(a < p.c)
	}
}
