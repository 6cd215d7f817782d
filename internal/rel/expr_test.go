package rel

import (
	"testing"
)

func col(i int) Expr                  { return &ColRef{Idx: i, Name: ""} }
func lit(v Value) Expr                { return &Const{Val: v} }
func bin(k BinOpKind, l, r Expr) Expr { return &BinOp{Kind: k, L: l, R: r} }

func TestBinOpComparisons(t *testing.T) {
	row := Row{Int(5), Float(2.5), Text("abc"), Bool(true), Null()}
	cases := []struct {
		e    Expr
		want bool
	}{
		{bin(OpEq, col(0), lit(Int(5))), true},
		{bin(OpNe, col(0), lit(Int(5))), false},
		{bin(OpLt, col(1), lit(Float(3))), true},
		{bin(OpLe, col(1), lit(Float(2.5))), true},
		{bin(OpGt, col(0), lit(Int(4))), true},
		{bin(OpGe, col(0), lit(Int(6))), false},
		{bin(OpEq, col(2), lit(Text("abc"))), true},
		{bin(OpEq, col(3), lit(Bool(true))), true},
		{bin(OpEq, col(4), lit(Int(0))), false}, // NULL = 0 -> false
		{bin(OpNe, col(4), lit(Int(0))), false}, // NULL <> 0 -> false
		{bin(OpAnd, lit(Bool(true)), lit(Bool(false))), false},
		{bin(OpOr, lit(Bool(true)), lit(Bool(false))), true},
	}
	for i, c := range cases {
		if got := c.e.Eval(row).AsBool(); got != c.want {
			t.Errorf("case %d %s = %v, want %v", i, c.e, got, c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	row := Row{Int(7), Int(2), Float(0.5)}
	cases := []struct {
		e    Expr
		want Value
	}{
		{bin(OpAdd, col(0), col(1)), Int(9)},
		{bin(OpSub, col(0), col(1)), Int(5)},
		{bin(OpMul, col(0), col(1)), Int(14)},
		{bin(OpDiv, col(0), col(1)), Int(3)},
		{bin(OpMod, col(0), col(1)), Int(1)},
		{bin(OpAdd, col(0), col(2)), Float(7.5)},
		{bin(OpDiv, col(0), lit(Float(2))), Float(3.5)},
		{bin(OpDiv, col(0), lit(Int(0))), Null()},
		{bin(OpMod, col(0), lit(Int(0))), Null()},
		{bin(OpDiv, col(0), lit(Float(0))), Null()},
		{bin(OpAdd, col(0), lit(Null())), Null()},
		{bin(OpMod, lit(Float(7.5)), lit(Float(2))), Float(1.5)},
	}
	for i, c := range cases {
		got := c.e.Eval(row)
		if got.Type() != c.want.Type() || (got.Type() != TypeNull && Compare(got, c.want) != 0) {
			t.Errorf("case %d %s = %v, want %v", i, c.e, got, c.want)
		}
	}
}

func TestNotIsNullInList(t *testing.T) {
	row := Row{Int(3), Null()}
	if (&Not{E: bin(OpEq, col(0), lit(Int(3)))}).Eval(row).AsBool() {
		t.Fatal("NOT (3=3) should be false")
	}
	if !(&IsNullExpr{E: col(1)}).Eval(row).AsBool() {
		t.Fatal("col1 IS NULL should be true")
	}
	if (&IsNullExpr{E: col(0)}).Eval(row).AsBool() {
		t.Fatal("col0 IS NULL should be false")
	}
	if !(&IsNullExpr{E: col(0), Negate: true}).Eval(row).AsBool() {
		t.Fatal("col0 IS NOT NULL should be true")
	}
	in := &InList{E: col(0), List: []Value{Int(1), Int(3), Int(5)}}
	if !in.Eval(row).AsBool() {
		t.Fatal("3 IN (1,3,5) should be true")
	}
	notIn := &InList{E: col(0), List: []Value{Int(2)}}
	if notIn.Eval(row).AsBool() {
		t.Fatal("3 IN (2) should be false")
	}
}

// TestThreeValuedLogic is the truth table of =, <>, <, IN, AND, OR and NOT
// over {true, false, NULL}: a comparison with a NULL operand is NULL, AND/OR
// are Kleene's, NOT NULL is NULL.
func TestThreeValuedLogic(t *testing.T) {
	T, F, N := Bool(true), Bool(false), Null()
	same := func(a, b Value) bool { return a.Type() == b.Type() && a.AsBool() == b.AsBool() }
	one, two, null := lit(Int(1)), lit(Int(2)), lit(Null())
	in := func(e Expr, list ...Value) Expr { return &InList{E: e, List: list} }
	for _, c := range []struct {
		e    Expr
		want Value
	}{
		{bin(OpEq, one, one), T}, {bin(OpEq, one, two), F},
		{bin(OpEq, one, null), N}, {bin(OpEq, null, one), N}, {bin(OpEq, null, null), N},
		{bin(OpNe, one, two), T}, {bin(OpNe, one, one), F},
		{bin(OpNe, one, null), N}, {bin(OpNe, null, one), N}, {bin(OpNe, null, null), N},
		{bin(OpLt, one, two), T}, {bin(OpLt, two, one), F},
		{bin(OpLt, one, null), N}, {bin(OpLt, null, one), N}, {bin(OpLt, null, null), N},
		{in(one, Int(1), Int(2)), T}, {in(one, Int(2)), F}, {in(null, Int(1)), N},
		{in(one, Int(2), Null()), N}, {in(one, Null(), Int(1)), T},
	} {
		if got := c.e.Eval(nil); !same(got, c.want) {
			t.Errorf("%s = %v, want %v", c.e, got, c.want)
		}
	}
	vals := []Value{T, F, N}
	and := [3][3]Value{{T, F, N}, {F, F, F}, {N, F, N}}
	or := [3][3]Value{{T, T, T}, {T, F, N}, {T, N, N}}
	not := [3]Value{F, T, N}
	for i, l := range vals {
		if got := (&Not{E: lit(l)}).Eval(nil); !same(got, not[i]) {
			t.Errorf("NOT %v = %v, want %v", l, got, not[i])
		}
		for j, r := range vals {
			if got := bin(OpAnd, lit(l), lit(r)).Eval(nil); !same(got, and[i][j]) {
				t.Errorf("%v AND %v = %v, want %v", l, r, got, and[i][j])
			}
			if got := bin(OpOr, lit(l), lit(r)).Eval(nil); !same(got, or[i][j]) {
				t.Errorf("%v OR %v = %v, want %v", l, r, got, or[i][j])
			}
		}
	}
}

func TestSplitCombineConjuncts(t *testing.T) {
	a := bin(OpEq, col(0), lit(Int(1)))
	b := bin(OpGt, col(1), lit(Int(2)))
	c := bin(OpLt, col(2), lit(Int(3)))
	e := bin(OpAnd, bin(OpAnd, a, b), c)
	parts := SplitConjuncts(e)
	if len(parts) != 3 {
		t.Fatalf("expected 3 conjuncts, got %d", len(parts))
	}
	re := CombineConjuncts(parts)
	row := Row{Int(1), Int(5), Int(0)}
	if !re.Eval(row).AsBool() {
		t.Fatal("recombined conjunction should hold")
	}
	if CombineConjuncts(nil) != nil {
		t.Fatal("empty conjunct list should be nil")
	}
	// An OR expression is a single conjunct.
	if got := SplitConjuncts(bin(OpOr, a, b)); len(got) != 1 {
		t.Fatalf("OR should not split, got %d parts", len(got))
	}
}

func TestReferencedColsAndShift(t *testing.T) {
	e := bin(OpAnd,
		bin(OpEq, col(0), col(3)),
		&Not{E: &InList{E: col(2), List: []Value{Int(1)}}})
	refs := map[int]bool{}
	ReferencedCols(e, refs)
	for _, want := range []int{0, 2, 3} {
		if !refs[want] {
			t.Fatalf("missing referenced column %d (got %v)", want, refs)
		}
	}
	if len(refs) != 3 {
		t.Fatalf("expected 3 refs, got %v", refs)
	}
}

func TestExprString(t *testing.T) {
	e := bin(OpAnd, bin(OpEq, &ColRef{Idx: 0, Name: "a"}, lit(Text("x"))), &IsNullExpr{E: &ColRef{Idx: 1, Name: "b"}})
	s := e.String()
	if s != "((a = 'x') AND b IS NULL)" {
		t.Fatalf("unexpected string: %s", s)
	}
	if (&ColRef{Idx: 4}).String() != "#4" {
		t.Fatal("anonymous colref rendering wrong")
	}
}

func TestSchemaOps(t *testing.T) {
	s := NewSchema(
		Column{Name: "id", Typ: TypeInt, Unique: true},
		Column{Name: "name", Typ: TypeText},
		Column{Name: "score", Typ: TypeFloat},
	)
	if s.Arity() != 3 {
		t.Fatal("arity wrong")
	}
	if s.ColIndex("NAME") != 1 || s.ColIndex("missing") != -1 {
		t.Fatal("colindex wrong")
	}
	if s.Col(0).Name != "id" {
		t.Fatal("col accessor wrong")
	}
	c := s.Concat(s)
	if c.Arity() != 6 {
		t.Fatal("concat wrong")
	}
	if got := s.String(); got != "(id BIGINT, name TEXT, score DOUBLE)" {
		t.Fatalf("schema string: %s", got)
	}
	names := s.Names()
	if len(names) != 3 || names[2] != "score" {
		t.Fatal("names wrong")
	}
}

func TestRowHelpers(t *testing.T) {
	r := Row{Int(1), Float(2.5), Text("9")}
	cl := r.Clone()
	cl[0] = Int(99)
	if r[0].AsInt() != 1 {
		t.Fatal("clone aliases")
	}
	if r.String() != "1, 2.5, 9" {
		t.Fatalf("row string: %s", r.String())
	}
}
