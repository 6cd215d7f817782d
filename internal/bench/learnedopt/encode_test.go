package learnedopt

import (
	"slices"
	"testing"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

func TestEncodeTreeFeatures(t *testing.T) {
	tbl := buildTestTable(t, nil)
	scan := &plan.SeqScan{Base: plan.Base{Out: tbl.Schema, EstRows: 100, EstCost: 10}, Table: tbl}
	scan2 := &plan.SeqScan{Base: plan.Base{Out: tbl.Schema, EstRows: 100, EstCost: 10}, Table: tbl}
	join := &plan.HashJoin{
		Base: plan.Base{Out: rel.NewSchema(slices.Concat(tbl.Schema.Cols, tbl.Schema.Cols)...), EstRows: 50, EstCost: 40},
		L:    scan, R: scan2, LKey: 0, RKey: 0,
	}
	p := &plan.Project{
		Base:  plan.Base{Out: rel.NewSchema(rel.Column{Name: "a"}), EstRows: 50, EstCost: 45},
		Child: join,
		Exprs: []rel.Expr{&rel.ColRef{Idx: 0, Name: "a"}},
	}
	toks := EncodeTree(p)
	nodes := 0
	plan.Walk(p, func(plan.Node, int) { nodes++ })
	if len(toks) != 4 || nodes != 4 { // one token per operator
		t.Fatalf("token count %d, nodes %d, want 4", len(toks), nodes)
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
