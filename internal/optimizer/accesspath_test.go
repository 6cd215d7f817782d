package optimizer

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/index"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/storage"
)

// addIndexedTable creates name(id INT, k INT, qty INT) holding n rows with
// id = k = row number and qty = row number % 50, B-tree indexes on id and k,
// none on qty, and fresh statistics.
func addIndexedTable(t *testing.T, cat *catalog.Catalog, name string, n int) *catalog.Table {
	t.Helper()
	tbl, err := cat.Create(name, rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "k", Typ: rel.TypeInt},
		rel.Column{Name: "qty", Typ: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	byID, byK := tbl.IndexOn(0).BT, index.NewBTree() // id's key index came with the table
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i)), rel.Int(int64(i % 50))}
	}
	ids, _ := tbl.Heap.InsertBatch(rows, 1, nil, nil)
	for i, id := range ids {
		byID.Insert(rows[i][0], id)
		byK.Insert(rows[i][1], id)
	}
	tbl.AddIndex(&catalog.Index{Name: name + "_k", Col: 1, BT: byK}, nil)
	tbl.Stats.Rebuild(rows)
	return tbl
}

// scanOf returns the single base-table scan of a plan.
func scanOf(t *testing.T, p plan.Node) plan.Node {
	t.Helper()
	var leaf plan.Node
	plan.Walk(p, func(n plan.Node, _ int) {
		if len(n.Children()) == 0 {
			leaf = n
		}
	})
	if leaf == nil {
		t.Fatalf("no scan in plan:\n%s", plan.Explain(p))
	}
	return leaf
}

// wantProbe describes the expected access node: seq (a SeqScan), or an
// IndexScan whose eq/lo/hi bounds are spelled the way Label prints them
// ("" = absent) and whose residual filter mentions every string in residual
// (nil residual = no filter at all).
type wantProbe struct {
	seq        bool
	eq, lo, hi string
	residual   []string
}

func checkProbe(t *testing.T, what string, n plan.Node, w wantProbe) {
	t.Helper()
	if w.seq {
		if _, ok := n.(*plan.SeqScan); !ok {
			t.Errorf("%s: got %s, want SeqScan", what, n.Label())
		}
		return
	}
	is, ok := n.(*plan.IndexScan)
	if !ok {
		t.Errorf("%s: got %s, want IndexScan", what, n.Label())
		return
	}
	spell := func(v *rel.Value, arg int) string {
		switch {
		case v != nil:
			return v.String()
		case arg != 0:
			return fmt.Sprintf("$%d", arg)
		}
		return ""
	}
	if got := [3]string{spell(is.Eq, is.EqArg), spell(is.Lo, is.LoArg), spell(is.Hi, is.HiArg)}; got != [3]string{w.eq, w.lo, w.hi} {
		t.Errorf("%s: probe eq/lo/hi = %q, want %q (%s)", what, got, [3]string{w.eq, w.lo, w.hi}, is.Label())
	}
	if (is.Filter == nil) != (w.residual == nil) {
		t.Errorf("%s: residual = %v, want %q", what, is.Filter, w.residual)
	}
	if is.Filter != nil {
		if got, want := len(rel.SplitConjuncts(is.Filter)), len(w.residual); got != want {
			t.Errorf("%s: residual %v has %d conjuncts, want %d", what, is.Filter, got, want)
		}
		for _, s := range w.residual {
			if !strings.Contains(is.Filter.String(), s) {
				t.Errorf("%s: residual %v lacks %q", what, is.Filter, s)
			}
		}
	}
}

// TestAccessPathShapes pins the access node chosen for the statement shapes
// the benchmark referee runs and for every way two bounds on one B-tree
// column can be written.
func TestAccessPathShapes(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(64))
	addIndexedTable(t, cat, "kv", 200_000)
	addIndexedTable(t, cat, "accounts", 20_000)
	addIndexedTable(t, cat, "facts", 160_000)
	addIndexedTable(t, cat, "small", 2_000)

	cases := []struct {
		sql  string
		want wantProbe
	}{
		// The referee's shapes.
		{`SELECT qty FROM kv WHERE id = ?`, wantProbe{eq: "$1"}},
		{`SELECT id, qty FROM kv WHERE id >= ? AND id < ?`, wantProbe{lo: "$1", hi: "$2", residual: []string{"< $2"}}},
		{`UPDATE accounts SET qty = qty - ? WHERE id = ?`, wantProbe{eq: "$2"}},
		{`UPDATE accounts SET qty = qty - 5 WHERE id = 77`, wantProbe{eq: "77"}},
		{`DELETE FROM accounts WHERE id = 77`, wantProbe{eq: "77"}},
		{`SELECT id, qty FROM facts WHERE id >= ? AND id < ?`, wantProbe{lo: "$1", hi: "$2", residual: []string{"< $2"}}},
		// A literal closed range in the middle of a small table.
		{`SELECT id FROM small WHERE k >= 1004 AND k < 1009`, wantProbe{lo: "1004", hi: "1009", residual: []string{"< 1009"}}},
		// Nothing to probe, or too much of the table to be worth probing.
		{`SELECT id FROM facts WHERE qty < ?`, wantProbe{seq: true}},
		{`SELECT id FROM facts WHERE id >= ?`, wantProbe{seq: true}},
		{`UPDATE facts SET qty = 0 WHERE id >= ?`, wantProbe{seq: true}},
		{`DELETE FROM facts`, wantProbe{seq: true}},
		// Every pairing of inclusive and strict bounds: the strict ones stay
		// behind as filters.
		{`SELECT id FROM small WHERE k >= ? AND k <= ?`, wantProbe{lo: "$1", hi: "$2"}},
		{`SELECT id FROM small WHERE k > ? AND k <= ?`, wantProbe{lo: "$1", hi: "$2", residual: []string{"> $1"}}},
		{`SELECT id FROM small WHERE k >= ? AND k < ?`, wantProbe{lo: "$1", hi: "$2", residual: []string{"< $2"}}},
		{`SELECT id FROM small WHERE k > ? AND k < ?`, wantProbe{lo: "$1", hi: "$2", residual: []string{"> $1", "< $2"}}},
		{`SELECT id FROM small WHERE k < ? AND k >= ?`, wantProbe{lo: "$2", hi: "$1", residual: []string{"< $1"}}},
		// Reversed operands.
		{`SELECT id FROM small WHERE ? <= k AND ? > k`, wantProbe{lo: "$1", hi: "$2", residual: []string{"$2 > "}}},
		{`SELECT id FROM small WHERE 1004 <= k AND 1009 >= k`, wantProbe{lo: "1004", hi: "1009"}},
		// A literal and a parameter on the two sides.
		{`SELECT id FROM small WHERE k >= 100 AND k <= ?`, wantProbe{lo: "100", hi: "$1"}},
		// Three bounds on one column: the tightest literal pair is probed, the
		// spare bound filters.
		{`SELECT id FROM small WHERE k >= 10 AND k <= 500 AND k <= 20`, wantProbe{lo: "10", hi: "20", residual: []string{"<= 500"}}},
		{`SELECT id FROM small WHERE k > 10 AND k >= 12 AND k < 30`, wantProbe{lo: "12", hi: "30", residual: []string{"> 10", "< 30"}}},
		{`SELECT id FROM small WHERE k >= ? AND k >= 12 AND k <= 40`, wantProbe{lo: "12", hi: "40", residual: []string{">= $1"}}},
		// An equality wins over range bounds on its column, and a filter on
		// another column rides along.
		{`SELECT id FROM small WHERE k >= 3 AND k = 7 AND qty < 9`, wantProbe{eq: "7", residual: []string{">= 3", "< 9"}}},
	}
	for _, c := range cases {
		stmt, err := sqlparse.Parse(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		// One entry point for every statement kind: a SELECT's base table and
		// a write's target get their access node from the same decision.
		p, err := New().PlanStmt(stmt, cat)
		if err != nil {
			t.Fatalf("plan %q: %v", c.sql, err)
		}
		checkProbe(t, c.sql, scanOf(t, p), c.want)
	}
}

// TestAccessPathEstimatesAgree: an index scan and the heap scan it beat
// promise the same number of rows, because both price the merged probe once.
func TestAccessPathEstimatesAgree(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(64))
	addIndexedTable(t, cat, "small", 2_000)
	for _, sql := range []string{
		`SELECT id FROM small WHERE k >= 1004 AND k < 1009`,
		`SELECT id FROM small WHERE k >= ? AND k < ?`,
		`SELECT id FROM small WHERE k = ? AND qty < 10`,
		`SELECT id FROM small WHERE k >= 10 AND k <= 500 AND k <= 20`,
	} {
		q := bindSQL(t, cat, sql)
		withIndex, err := New().Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		without, err := (&Optimizer{Hints: HintSet{NoIndexScan: true}}).Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		is, ok := scanOf(t, withIndex).(*plan.IndexScan)
		if !ok {
			t.Fatalf("%s: default plan has no index scan:\n%s", sql, plan.Explain(withIndex))
		}
		ss, ok := scanOf(t, without).(*plan.SeqScan)
		if !ok {
			t.Fatalf("%s: NoIndexScan ignored:\n%s", sql, plan.Explain(without))
		}
		if is.EstRows != ss.EstRows {
			t.Errorf("%s: IndexScan promises %v rows, SeqScan %v", sql, is.EstRows, ss.EstRows)
		}
	}
	// The closed literal range is priced as one window, not two halves.
	q := bindSQL(t, cat, `SELECT id FROM small WHERE k >= 1004 AND k < 1009`)
	p, err := New().Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if rows, _ := scanOf(t, p).Estimates(); rows > 25 {
		t.Errorf("closed range of 5 keys estimated at %v rows", rows)
	}
}

// TestSelOfGenericAndNull covers the per-conjunct rules: parameter
// comparisons use the generic constants (1/NDV for equality), and IS [NOT]
// NULL reads the column the expression names.
func TestSelOfGenericAndNull(t *testing.T) {
	cat := catalog.New(storage.NewBufferPool(16))
	tbl, err := cat.Create("n", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, NotNull: true},
		rel.Column{Name: "note", Typ: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]rel.Row, 1000)
	for i := range rows {
		note := rel.Null()
		if i%10 == 0 {
			note = rel.Int(int64(i))
		}
		rows[i] = rel.Row{rel.Int(int64(i)), note}
	}
	tbl.Stats.Rebuild(rows)
	ts := tbl.Stats
	id, note := &rel.ColRef{Idx: 0}, &rel.ColRef{Idx: 1}
	near := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s: selectivity %v, want %v", what, got, want)
		}
	}
	near("note IS NULL", selOf(ts, &rel.IsNullExpr{E: note}), 0.9)
	near("note IS NOT NULL", selOf(ts, &rel.IsNullExpr{E: note, Negate: true}), 0.1)
	near("id IS NULL", selOf(ts, &rel.IsNullExpr{E: id}), 0)
	sum := &rel.BinOp{Kind: rel.OpAdd, L: id, R: note}
	near("(id + note) IS NULL", selOf(ts, &rel.IsNullExpr{E: sum}), 0.05)

	param := &rel.Param{Idx: 0}
	near("id = ?", selOf(ts, &rel.BinOp{Kind: rel.OpEq, L: id, R: param}), 1.0/1000)
	near("? = id", selOf(ts, &rel.BinOp{Kind: rel.OpEq, L: param, R: id}), 1.0/1000)
	near("id <> ?", selOf(ts, &rel.BinOp{Kind: rel.OpNe, L: id, R: param}), 1-1.0/1000)
	near("id >= ?", selOf(ts, &rel.BinOp{Kind: rel.OpGe, L: id, R: param}), genericIneqSel)
	near("id + note > ?", selOf(ts, &rel.BinOp{Kind: rel.OpGt, L: sum, R: param}), genericIneqSel)
}
