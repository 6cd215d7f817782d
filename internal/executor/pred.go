package executor

import (
	"cmp"
	"math"

	"neurdb/internal/rel"
)

// pred is a compiled row predicate: keep(row) is, by definition,
// e.Eval(row).AsBool() for the expression e it was compiled from, and
// e.Eval stays the fallback for everything the kernel does not cover. The
// zero pred — what a nil expression compiles to — keeps every row. A pred is
// held by value and compiling allocates nothing. The one kernel is col op
// const, op a comparison and const INT or DOUBLE (const op col is flipped
// first): when the row's value is INT or DOUBLE it is ordered against the
// constant with rel.Compare's semantics — two INTs as int64s, two DOUBLEs as
// float64s with NaN equal to everything, an INT and a DOUBLE through
// rel.Compare itself, exactly. Any other value (NULL, BOOL, TEXT in a
// numeric column) and every other shape, AND and OR included, go to Eval.
//
// A pred is read-only after compilePred, so morsel workers share one.
type pred struct {
	e     rel.Expr      // source expression; nil keeps every row
	col   int           // kernel: the compared column
	c     rel.Value     // kernel: the constant
	op    rel.BinOpKind // kernel: comparison with col on the left
	isCmp bool          // the col op const kernel applies
}

// compilePred compiles e with the statement's arguments bound; callers do
// so once per operator, never per page or per row.
func compilePred(ctx *Ctx, e rel.Expr) pred {
	p := pred{e: ctx.bind(e)}
	b, ok := p.e.(*rel.BinOp)
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
	if isCmp && ok1 && ok2 && (v.Val.Type() == rel.TypeInt || v.Val.Type() == rel.TypeFloat) {
		p.isCmp, p.col, p.op, p.c = true, c.Idx, op, v.Val
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
	// r is the sign of rel.Compare(row[col], c).
	var r int
	switch v := &row[p.col]; {
	case v.Type() == rel.TypeInt && p.c.Type() == rel.TypeInt:
		r = cmp.Compare(int64(v.Bits()), int64(p.c.Bits()))
	case v.Type() == rel.TypeFloat && p.c.Type() == rel.TypeFloat:
		switch a, c := math.Float64frombits(v.Bits()), math.Float64frombits(p.c.Bits()); {
		case a < c:
			r = -1
		case a > c:
			r = 1
		}
	case v.Type() == rel.TypeInt || v.Type() == rel.TypeFloat:
		r = rel.Compare(*v, p.c)
	default:
		return p.e.Eval(row).AsBool()
	}
	switch p.op {
	case rel.OpEq:
		return r == 0
	case rel.OpNe:
		return r != 0
	case rel.OpLt:
		return r < 0
	case rel.OpLe:
		return r <= 0
	case rel.OpGt:
		return r > 0
	default: // OpGe
		return r >= 0
	}
}
