package executor

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

// edgePool holds the values where value semantics break first: NULL, both
// zeros, 1 as INT, DOUBLE and BOOL, the infinities, the int64 extremes and
// their neighbours, 2^53±1 as INT and as DOUBLE (the DOUBLE 2^53+1 rounds
// to 2^53), ±2^63 as DOUBLE, fractions either side of an INT, the empty and
// a long TEXT. NaN is kept apart (nanValue).
var edgePool = []rel.Value{
	rel.Null(),
	rel.Int(0), rel.Float(0), rel.Float(math.Copysign(0, -1)),
	rel.Int(1), rel.Float(1), rel.Bool(true), rel.Bool(false),
	rel.Float(1.5), rel.Float(-1.5), rel.Int(-1),
	rel.Float(math.Inf(1)), rel.Float(math.Inf(-1)),
	rel.Int(math.MinInt64), rel.Int(math.MinInt64 + 1), rel.Int(math.MaxInt64), rel.Int(math.MaxInt64 - 1),
	rel.Float(-0x1p63), rel.Float(0x1p63),
	rel.Int(1<<53 - 1), rel.Int(1 << 53), rel.Int(1<<53 + 1),
	rel.Float(1<<53 - 1), rel.Float(1 << 53), rel.Float(1<<53 + 1),
	rel.Text(""), rel.Text(strings.Repeat("long text ", 40)),
}

// nanValue compares equal to every number, by rel.Compare's documented
// rule ("neither less nor greater is equal"). That rule is neither
// transitive (NaN = 1 and NaN = 2, but 1 <> 2) nor hash-consistent, so NaN
// joins only the kernel-versus-Eval check; TestNaNIsEqualToEveryNumber
// records the rule itself.
var nanValue = rel.Float(math.NaN())

var cmpOps = []rel.BinOpKind{rel.OpEq, rel.OpNe, rel.OpLt, rel.OpLe, rel.OpGt, rel.OpGe}

// TestEdgePoolPredKernelMatchesEval: for every pair from the pool plus NaN,
// the compiled predicate decides col op const and const op col exactly as
// Expr.Eval does.
func TestEdgePoolPredKernelMatchesEval(t *testing.T) {
	pool := append(append([]rel.Value(nil), edgePool...), nanValue)
	for _, a := range pool {
		row := rel.Row{a}
		for _, b := range pool {
			for _, op := range cmpOps {
				col, k := &rel.ColRef{Idx: 0}, &rel.Const{Val: b}
				for _, e := range []rel.Expr{&rel.BinOp{Kind: op, L: col, R: k}, &rel.BinOp{Kind: op, L: k, R: col}} {
					p := compilePred(&Ctx{}, e)
					if got, want := p.keep(row), e.Eval(row).AsBool(); got != want {
						t.Errorf("%v with col = %v %v: kernel %v, Eval %v", e, a, a.Type(), got, want)
					}
				}
			}
		}
	}
}

// TestEdgePoolKeysMatchCompare: every place that keys values agrees with
// rel.Compare on the pool — the join's table key and its build table, the
// aggregate's group slot on the single-key and the multi-column path —
// Compare == 0 implies equal Hash, and Compare is a total order.
func TestEdgePoolKeysMatchCompare(t *testing.T) {
	count := []plan.AggItem{{Agg: &plan.AggSpec{Kind: plan.AggCount}}}
	single := newAggAcc([]rel.Expr{&rel.ColRef{Idx: 0}}, count)
	multi := newAggAcc([]rel.Expr{&rel.ColRef{Idx: 0}, &rel.ColRef{Idx: 1}}, count)
	slots := func(v rel.Value) (int, int) {
		return single.slot(rel.Row{v}, nil, 0), multi.slot(rel.Row{v, rel.Int(7)}, nil, 0)
	}
	for _, a := range edgePool {
		sa, ma := slots(a)
		build := newJoinTable([]rel.Row{{a}}, 0)
		for _, b := range edgePool {
			c := rel.Compare(a, b)
			if c != -rel.Compare(b, a) {
				t.Errorf("Compare(%v, %v) = %d but Compare(%v, %v) = %d", a, b, c, b, a, rel.Compare(b, a))
			}
			if c == 0 && a.Hash() != b.Hash() {
				t.Errorf("%v %v and %v %v compare equal but hash apart", a, a.Type(), b, b.Type())
			}
			if a.IsNull() || b.IsNull() {
				continue // never keyed for a join; GROUP BY gives NULL its own group
			}
			if joined := build.first(&b) != 0; joined != (c == 0) {
				t.Errorf("join of %v %v with %v %v: matched %v, Compare = %d", a, a.Type(), b, b.Type(), joined, c)
			}
			if eq := tableKey(&a) == tableKey(&b); numericType(a.Type()) && numericType(b.Type()) && eq != (c == 0) {
				t.Errorf("tableKey of %v %v and %v %v: equal %v, Compare = %d", a, a.Type(), b, b.Type(), eq, c)
			}
			sb, mb := slots(b)
			if (sa == sb) != (c == 0) || (ma == mb) != (c == 0) {
				t.Errorf("GROUP BY %v %v and %v %v: slots %d/%d (single), %d/%d (multi), Compare = %d",
					a, a.Type(), b, b.Type(), sa, sb, ma, mb, c)
			}
		}
	}
	for _, a := range edgePool {
		for _, b := range edgePool {
			for _, c := range edgePool {
				ab, bc, ac := rel.Compare(a, b), rel.Compare(b, c), rel.Compare(a, c)
				if ab <= 0 && bc <= 0 && ac > 0 || ab == 0 && bc == 0 && ac != 0 {
					t.Fatalf("Compare is not transitive: %v %v, %v %v, %v %v: %d %d %d",
						a, a.Type(), b, b.Type(), c, c.Type(), ab, bc, ac)
				}
			}
		}
	}
}

// TestJoinTableRechecksCollidingWideInts: two INTs float64 cannot hold
// whose table keys collide share a chain, and the join still matches each
// probe with its own row only.
func TestJoinTableRechecksCollidingWideInts(t *testing.T) {
	// wideIntKey multiplies by an odd constant; keys of i and i-inv differ
	// in the product's lowest bit only, which the key drops.
	const mul = 0x9e3779b97f4a7c15
	inv := uint64(mul)
	for k := 0; k < 6; k++ {
		inv *= 2 - mul*inv
	}
	a := rel.Int(math.MaxInt64 - 2)
	b := rel.Int(math.MaxInt64 - 2 - int64(inv))
	if _, ok := numKey(&b); ok || tableKey(&a) != tableKey(&b) {
		t.Fatalf("%v and %v: want two wide INTs with one table key", a, b)
	}
	build := newJoinTable([]rel.Row{{a}, {b}}, 0)
	for i, probe := range []rel.Value{a, b} {
		var got []int32
		for e := build.first(&probe); e != 0; e = build.after(e, &probe) {
			got = append(got, e)
		}
		if len(got) != 1 || got[0] != int32(i+1) {
			t.Errorf("probe %v matched rows %v, want [%d]", probe, got, i+1)
		}
	}
}

// TestEdgePoolCodecRoundTrips: EncodeValue then DecodeValue gives back the
// same value, type and payload, NaN included. A Value is incomparable (a
// TEXT's identity is a pointer), so the decoded value is judged by its own
// encoding, which holds the type tag and the whole payload.
func TestEdgePoolCodecRoundTrips(t *testing.T) {
	for _, v := range append(append([]rel.Value(nil), edgePool...), nanValue) {
		enc := rel.EncodeValue(nil, v)
		got, n, err := rel.DecodeValue(enc)
		if err != nil || n != len(enc) || !bytes.Equal(rel.EncodeValue(nil, got), enc) {
			t.Errorf("%v %v: decoded %v %v (%d of %d bytes, %v)", v, v.Type(), got, got.Type(), n, len(enc), err)
		}
	}
}

// TestNaNIsEqualToEveryNumber records rel.Compare's NaN rule, the one the
// pool checks above leave out: NaN neither orders before nor after any
// number, so it compares equal to all of them.
func TestNaNIsEqualToEveryNumber(t *testing.T) {
	for _, v := range edgePool {
		if numericType(v.Type()) && (rel.Compare(nanValue, v) != 0 || rel.Compare(v, nanValue) != 0) {
			t.Errorf("Compare(NaN, %v %v) = %d", v, v.Type(), rel.Compare(nanValue, v))
		}
	}
}
