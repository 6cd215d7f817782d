package plan

import (
	"slices"
	"strings"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
)

func testTable(t *testing.T) *catalog.Table {
	t.Helper()
	cat := catalog.New(nil)
	tbl, err := cat.Create("t", rel.NewSchema(
		rel.Column{Name: "a", Typ: rel.TypeInt},
		rel.Column{Name: "b", Typ: rel.TypeInt},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]rel.Row, 100)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i % 7))}
	}
	tbl.Heap.InsertBatch(rows, 1, nil, nil)
	tbl.Stats.Rebuild([]rel.Row{{rel.Int(1), rel.Int(2)}})
	return tbl
}

func samplePlan(t *testing.T) Node {
	tbl := testTable(t)
	scan := &SeqScan{
		Base:  Base{Out: tbl.Schema, EstRows: 100, EstCost: 10},
		Table: tbl,
		Filter: &rel.BinOp{Kind: rel.OpGt,
			L: &rel.ColRef{Idx: 0, Name: "a"}, R: &rel.Const{Val: rel.Int(5)}},
	}
	scan2 := &SeqScan{Base: Base{Out: tbl.Schema, EstRows: 100, EstCost: 10}, Table: tbl}
	join := &HashJoin{
		Base: Base{Out: rel.NewSchema(slices.Concat(tbl.Schema.Cols, tbl.Schema.Cols)...), EstRows: 50, EstCost: 40},
		L:    scan, R: scan2, LKey: 0, RKey: 0,
	}
	return &Project{
		Base:  Base{Out: rel.NewSchema(rel.Column{Name: "a"}), EstRows: 50, EstCost: 45},
		Child: join,
		Exprs: []rel.Expr{&rel.ColRef{Idx: 0, Name: "a"}},
	}
}

func TestExplainWalkCount(t *testing.T) {
	p := samplePlan(t)
	nodes := 0
	Walk(p, func(Node, int) { nodes++ })
	if nodes != 4 {
		t.Fatalf("Walk visited %d nodes, want 4", nodes)
	}
	out := Explain(p)
	for _, want := range []string{"Project", "HashJoin", "SeqScan(t, (a > 5))", "rows=50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain missing %q:\n%s", want, out)
		}
	}
	// Walk visits with correct depths.
	depths := map[string]int{}
	Walk(p, func(n Node, d int) { depths[n.Label()] = d })
	if depths["HashJoin(l.#0 = r.#0)"] != 1 {
		t.Fatalf("depths: %v", depths)
	}
}

func TestEncodeTreeFeatures(t *testing.T) {
	p := samplePlan(t)
	toks := EncodeTree(p)
	if len(toks) != 4 { // the sample plan's nodes
		t.Fatalf("token count %d, want 4", len(toks))
	}
	for _, tok := range toks {
		if len(tok) != NodeFeatureDim {
			t.Fatalf("feature dim %d", len(tok))
		}
	}
	// Root is a Project → "other" one-hot at position 6, depth 0.
	if toks[0][6] != 1 || toks[0][9] != 0 {
		t.Fatalf("root token wrong: %v", toks[0])
	}
	// Second token is the hash join at depth 1.
	if toks[1][2] != 1 || toks[1][9] == 0 {
		t.Fatalf("join token wrong: %v", toks[1])
	}
	// Leaves carry table features.
	leaf := toks[2]
	if leaf[0] != 1 || leaf[11] <= 0 {
		t.Fatalf("leaf token wrong: %v", leaf)
	}
}

func TestNodeLabelsAndKinds(t *testing.T) {
	tbl := testTable(t)
	v := &rel.Const{Val: rel.Int(3)}
	nodes := []Node{
		&IndexScan{Base: Base{Out: tbl.Schema}, Table: tbl,
			Index: &catalog.Index{Name: "i", Col: 0}, Eq: v},
		&IndexScan{Base: Base{Out: tbl.Schema}, Table: tbl,
			Index: &catalog.Index{Name: "i", Col: 0}, Lo: v},
		&NLJoin{Base: Base{Out: tbl.Schema}, L: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl},
			R: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl}},
		&IndexJoin{Base: Base{Out: tbl.Schema}, L: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl},
			Table: tbl, Index: &catalog.Index{Name: "i", Col: 0}},
		&Filter{Base: Base{Out: tbl.Schema}, Child: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl},
			Pred: &rel.Const{Val: rel.Bool(true)}},
		&Agg{Base: Base{Out: tbl.Schema}, Child: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl},
			Items: []AggItem{{Agg: &AggSpec{Kind: AggCount}}}},
		&Sort{Base: Base{Out: tbl.Schema}, Child: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl}},
		&Limit{Base: Base{Out: tbl.Schema}, Child: &SeqScan{Base: Base{Out: tbl.Schema}, Table: tbl}, N: 5},
	}
	for _, n := range nodes {
		if n.Label() == "" {
			t.Fatalf("%T has empty label", n)
		}
		if n.Schema() == nil {
			t.Fatalf("%T has no schema", n)
		}
	}
	// Probe bounds: a literal unquoted, a parameter as $n, an open end as
	// an infinity.
	ix := &catalog.Index{Name: "i", Col: 0}
	for _, c := range []struct {
		n    *IndexScan
		want string
	}{
		{&IndexScan{Table: tbl, Index: ix, Eq: v}, "IndexScan(t, a=3)"},
		{&IndexScan{Table: tbl, Index: ix, Eq: &rel.Const{Val: rel.Text("acme")}}, "IndexScan(t, a=acme)"},
		{&IndexScan{Table: tbl, Index: ix, Lo: v}, "IndexScan(t, a in [3,+inf])"},
		{&IndexScan{Table: tbl, Index: ix, Hi: &rel.Param{Idx: 1}}, "IndexScan(t, a in [-inf,$2])"},
	} {
		if got := c.n.Label(); got != c.want {
			t.Errorf("label %q, want %q", got, c.want)
		}
	}
	// Aggregate kind names.
	for k, want := range map[AggKind]string{AggCount: "COUNT", AggSum: "SUM", AggAvg: "AVG", AggMin: "MIN", AggMax: "MAX"} {
		if k.String() != want {
			t.Fatalf("agg kind %d name %q", k, k.String())
		}
	}
	// NLJoin without condition renders as cross join.
	cross := &NLJoin{Base: Base{Out: tbl.Schema}, L: nodes[2], R: nodes[2]}
	if !strings.Contains(cross.Label(), "cross") {
		t.Fatal("cross join label wrong")
	}
}
