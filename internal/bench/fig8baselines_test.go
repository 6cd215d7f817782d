package bench

import (
	"math/rand"
	"testing"

	"neurdb/internal/bench/learnedopt"
	"neurdb/internal/catalog"
	"neurdb/internal/nn"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

func buildTestTable(t *testing.T) *catalog.Table {
	t.Helper()
	cat := catalog.New(nil)
	tbl, err := cat.Create("t1", rel.NewSchema(
		rel.Column{Name: "a", Typ: rel.TypeInt},
		rel.Column{Name: "b", Typ: rel.TypeFloat},
	))
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]rel.Row, 500)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Float(float64(i) * 0.5)}
	}
	tbl.Heap.InsertBatch(rows, 1, nil, nil)
	tbl.Stats.NewBuilder(0).Add(rows).Finish()
	return tbl
}

// fakePlan builds a tiny real plan over the test table for feature tests.
func fakePlan(tbl *catalog.Table, rows, cost float64) plan.Node {
	return &plan.SeqScan{
		Base:  plan.Base{Out: tbl.Schema, EstRows: rows, EstCost: cost},
		Table: tbl,
	}
}

func TestPlanFeatures(t *testing.T) {
	tbl := buildTestTable(t)
	f := PlanFeatures(fakePlan(tbl, 100, 500))
	if len(f) != planFeatureDim {
		t.Fatalf("feature dim %d", len(f))
	}
	if f[0] != 1 { // seqscan one-hot survives mean-pool of single node
		t.Fatalf("op one-hot lost: %v", f)
	}
	f2 := PlanFeatures(fakePlan(tbl, 100000, 500000))
	if f2[learnedopt.NodeFeatureDim] <= f[learnedopt.NodeFeatureDim] {
		t.Fatal("row estimate feature not monotone")
	}
}

func TestBaoLearnsAndFreezes(t *testing.T) {
	tbl := buildTestTable(t)
	b := NewBao(5)
	opt := nn.NewAdam(0.01)
	// Teach: high-cost plans are slow, low-cost fast.
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 600; i++ {
		c := r.Float64()
		p := fakePlan(tbl, 10+c*100000, 10+c*100000)
		runtime := 0.001 + c*0.5
		b.Train(p, runtime, opt)
	}
	cheap := fakePlan(tbl, 50, 50)
	costly := fakePlan(tbl, 90000, 90000)
	if b.PredictRuntime(cheap) >= b.PredictRuntime(costly) {
		t.Fatal("Bao value network did not learn runtime ordering")
	}
	if got := b.Choose([]plan.Node{costly, cheap}); got != 1 {
		t.Fatalf("Bao chose %d", got)
	}
	b.Freeze()
	before := b.PredictRuntime(cheap)
	b.Train(cheap, 99, opt)
	if b.PredictRuntime(cheap) != before {
		t.Fatal("frozen Bao must not train")
	}
}

func TestLeroComparatorLearnsAndFreezes(t *testing.T) {
	tbl := buildTestTable(t)
	l := NewLero(7)
	opt := nn.NewAdam(0.01)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 600; i++ {
		c1, c2 := r.Float64(), r.Float64()
		p1 := fakePlan(tbl, 10+c1*100000, 10+c1*100000)
		p2 := fakePlan(tbl, 10+c2*100000, 10+c2*100000)
		if c1 < c2 {
			l.TrainPair(p1, p2, opt)
		} else {
			l.TrainPair(p2, p1, opt)
		}
	}
	cheap := fakePlan(tbl, 50, 50)
	costly := fakePlan(tbl, 90000, 90000)
	if l.prefer(cheap, costly) <= 0 {
		t.Fatal("Lero comparator did not learn preference")
	}
	if got := l.Choose([]plan.Node{costly, cheap, costly}); got != 1 {
		t.Fatalf("Lero chose %d", got)
	}
	l.Freeze()
	if l.TrainPair(cheap, costly, opt) != 0 {
		t.Fatal("frozen Lero must not train")
	}
}
