package executor

import (
	"math"
	"math/rand"
	"testing"

	"neurdb/internal/rel"
)

// predValues are the cell values the property test draws rows from: every
// type, NaN, infinities and both zeros.
var predValues = []rel.Value{
	rel.Null(), rel.Int(0), rel.Int(1), rel.Int(-3), rel.Int(7),
	rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(1), rel.Float(2.5), rel.Float(-3),
	rel.Float(math.NaN()), rel.Float(math.Inf(1)),
	rel.Bool(true), rel.Bool(false), rel.Text("1"), rel.Text("abc"), rel.Text("t"),
}

// predConsts are the constants comparisons draw: mostly INT and FLOAT (the
// kernel's domain, NaN and -0 included), sometimes a BOOL, TEXT or NULL
// constant that must stay on Eval.
var predConsts = []rel.Value{
	rel.Int(0), rel.Int(1), rel.Int(-3), rel.Int(7),
	rel.Float(0), rel.Float(math.Copysign(0, -1)), rel.Float(1), rel.Float(2.5), rel.Float(math.NaN()),
	rel.Bool(true), rel.Text("1"), rel.Null(),
}

const predCols = 4

// randPredExpr draws a predicate over predCols columns: comparisons in both
// operand orders against a constant, a column or column arithmetic, IN,
// IS [NOT] NULL, nested under AND / OR / NOT.
func randPredExpr(r *rand.Rand, depth int) rel.Expr {
	col := func() rel.Expr { return &rel.ColRef{Idx: r.Intn(predCols)} }
	konst := func() rel.Expr { return &rel.Const{Val: predConsts[r.Intn(len(predConsts))]} }
	if depth > 0 {
		switch r.Intn(4) {
		case 0:
			return &rel.BinOp{Kind: rel.OpAnd, L: randPredExpr(r, depth-1), R: randPredExpr(r, depth-1)}
		case 1:
			return &rel.BinOp{Kind: rel.OpOr, L: randPredExpr(r, depth-1), R: randPredExpr(r, depth-1)}
		case 2:
			return &rel.Not{E: randPredExpr(r, depth-1)}
		}
	}
	switch r.Intn(8) {
	case 0:
		return &rel.InList{E: col(), List: []rel.Value{predValues[r.Intn(len(predValues))], predValues[r.Intn(len(predValues))]}}
	case 1:
		return &rel.IsNullExpr{E: col(), Negate: r.Intn(2) == 0}
	case 2: // a bare column decides by its own truth value
		return col()
	}
	cmp := []rel.BinOpKind{rel.OpEq, rel.OpNe, rel.OpLt, rel.OpLe, rel.OpGt, rel.OpGe}[r.Intn(6)]
	var operand, other rel.Expr
	switch r.Intn(6) {
	case 0:
		operand = &rel.BinOp{Kind: []rel.BinOpKind{rel.OpAdd, rel.OpSub, rel.OpMul, rel.OpDiv}[r.Intn(4)], L: col(), R: col()}
	case 1:
		operand = &rel.BinOp{Kind: rel.OpMul, L: col(), R: konst()}
	default:
		operand = col()
	}
	if r.Intn(5) == 0 {
		other = col()
	} else {
		other = konst()
	}
	if r.Intn(2) == 0 {
		operand, other = other, operand
	}
	return &rel.BinOp{Kind: cmp, L: operand, R: other}
}

// TestCompiledPredMatchesEval is the definition of pred as a property:
// compilePred(e).keep(row) == e.Eval(row).AsBool() over seeded random
// expressions and rows. It also checks that the draw reaches the kernel in
// both operand orders, so agreement is not agreement of two Evals. Each
// expression is compiled a second time with every constant a parameter and
// the constants as the statement's arguments: bound that way it must reach
// the same kernel and decide every row alike.
func TestCompiledPredMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	rows := make([]rel.Row, 400)
	for i := range rows {
		rows[i] = make(rel.Row, predCols)
		for c := range rows[i] {
			rows[i][c] = predValues[r.Intn(len(predValues))]
		}
	}
	kernels, flipped := 0, 0
	for n := 0; n < 5000; n++ {
		e := randPredExpr(r, r.Intn(4))
		p := compilePred(&Ctx{}, e)
		if p.isCmp {
			kernels++
			if _, constLeft := e.(*rel.BinOp).L.(*rel.Const); constLeft {
				flipped++
			}
		}
		var args []rel.Value
		pe := paramize(e, &args)
		bound := compilePred(&Ctx{Args: args}, pe)
		if bound.isCmp != p.isCmp {
			t.Fatalf("%s: kernel %v; as %s under %v: kernel %v", e, p.isCmp, pe, args, bound.isCmp)
		}
		for _, row := range rows {
			want := e.Eval(row).AsBool()
			if got := p.keep(row); got != want {
				t.Fatalf("%s on %v: compiled %v, Eval %v", e, row, got, want)
			}
			if got := bound.keep(row); got != want {
				t.Fatalf("%s as %s under %v on %v: compiled %v, Eval %v", e, pe, args, row, got, want)
			}
		}
	}
	if kernels < 400 || flipped < 100 {
		t.Fatalf("only %d comparison kernels (%d with the constant on the left) were drawn", kernels, flipped)
	}
}

// paramize replaces every constant of e with a parameter, appending the
// constant's value to *args.
func paramize(e rel.Expr, args *[]rel.Value) rel.Expr {
	switch t := e.(type) {
	case *rel.Const:
		*args = append(*args, t.Val)
		return &rel.Param{Idx: len(*args) - 1}
	case *rel.BinOp:
		return &rel.BinOp{Kind: t.Kind, L: paramize(t.L, args), R: paramize(t.R, args)}
	case *rel.Not:
		return &rel.Not{E: paramize(t.E, args)}
	}
	return e
}

// TestCompilePredAllocations: a filter compiles to a value and allocates
// nothing — nil, a lone comparison or a conjunction — so a point or range
// read pays no allocation for its residual filter.
func TestCompilePredAllocations(t *testing.T) {
	row := rel.Row{rel.Int(5)}
	lt := &rel.BinOp{Kind: rel.OpLt, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Int(9)}}
	ge := &rel.BinOp{Kind: rel.OpGe, L: &rel.ColRef{Idx: 0}, R: &rel.Const{Val: rel.Float(1.5)}}
	and := &rel.BinOp{Kind: rel.OpAnd, L: ge, R: lt}
	ctx := &Ctx{}
	for _, e := range []rel.Expr{nil, lt, and} {
		if n := testing.AllocsPerRun(100, func() {
			p := compilePred(ctx, e)
			if !p.keep(row) {
				t.Fatalf("%v dropped %v", e, row)
			}
		}); n != 0 {
			t.Fatalf("compiling and running %v allocated %v times", e, n)
		}
	}
}
