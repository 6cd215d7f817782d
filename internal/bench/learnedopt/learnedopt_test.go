package learnedopt

import (
	"math/rand"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/nn"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// synthPlanTokens builds a fake plan token sequence whose features encode a
// hidden "cost" signal at position 7 (log rows) — the model must learn to
// pick the candidate with the lowest signal.
func synthPlanTokens(r *rand.Rand, quality float64) [][]float64 {
	n := 3 + r.Intn(4)
	toks := make([][]float64, n)
	for i := range toks {
		t := make([]float64, NodeFeatureDim)
		t[r.Intn(6)] = 1 // random op one-hot
		t[7] = quality + r.Float64()*0.05
		t[8] = quality * 0.8
		t[9] = float64(i) / 8
		toks[i] = t
	}
	return toks
}

func synthCond(r *rand.Rand) *nn.Matrix {
	rows := make([][]float64, 3)
	for i := range rows {
		row := make([]float64, CondFeatureDim)
		for j := range row {
			row[j] = r.Float64() * 0.5
		}
		rows[i] = row
	}
	return FromRows(rows)
}

func TestModelLearnsToPickCheapestCandidate(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewModel(16, 2, 2)
	opt := nn.NewAdam(0.005)
	gen := func() Example {
		k := 3 + r.Intn(3)
		tokens := make([][][]float64, k)
		best := r.Intn(k)
		for i := range tokens {
			q := 0.5 + r.Float64()*0.4
			if i == best {
				q = 0.05 + r.Float64()*0.1
			}
			tokens[i] = synthPlanTokens(r, q)
		}
		return Example{Tokens: tokens, Cond: synthCond(r), Best: best}
	}
	var lastLoss float64
	for i := 0; i < 400; i++ {
		lastLoss = m.TrainExample(gen(), opt)
	}
	_ = lastLoss
	// Evaluate accuracy on fresh examples.
	correct := 0
	const trials = 100
	for i := 0; i < trials; i++ {
		ex := gen()
		if m.Choose(ex.Tokens, ex.Cond) == ex.Best {
			correct++
		}
	}
	if correct < 70 {
		t.Fatalf("model picked best candidate %d/%d times; should beat chance (~25-33)", correct, trials)
	}
}

func TestModelChooseEdgeCases(t *testing.T) {
	m := NewModel(8, 2, 3)
	if m.Choose(nil, nil) != 0 {
		t.Fatal("empty candidates should return 0")
	}
	r := rand.New(rand.NewSource(4))
	single := [][][]float64{synthPlanTokens(r, 0.5)}
	if m.Choose(single, synthCond(r)) != 0 {
		t.Fatal("single candidate should return 0")
	}
	// TrainExample on degenerate input is a no-op.
	if loss := m.TrainExample(Example{Tokens: single, Cond: synthCond(r), Best: 0}, nn.NewAdam(0.01)); loss != 0 {
		t.Fatal("single-candidate training should be skipped")
	}
}

func buildTestTable(t *testing.T, pool *storage.BufferPool) *catalog.Table {
	t.Helper()
	cat := catalog.New(pool)
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

func TestBuildConditions(t *testing.T) {
	pool := storage.NewBufferPool(64)
	tbl := buildTestTable(t, pool)
	cond := BuildConditions([]*catalog.Table{tbl}, pool)
	if cond.Rows != 2 || cond.Cols != CondFeatureDim {
		t.Fatalf("cond shape %dx%d", cond.Rows, cond.Cols)
	}
	if cond.At(0, 0) != 1 {
		t.Fatal("global token marker missing")
	}
	if cond.At(1, 1) <= 0 {
		t.Fatal("table row-count feature missing")
	}
	// Conditions change when the data changes — the adaptivity signal.
	for i := 0; i < 2000; i++ {
		tbl.Stats.NoteInsertBatch([]rel.Row{{rel.Int(int64(10000 + i)), rel.Float(9999)}})
	}
	cond2 := BuildConditions([]*catalog.Table{tbl}, pool)
	if cond2.At(1, 1) <= cond.At(1, 1) {
		t.Fatal("condition tokens did not reflect growth")
	}
	// Nil pool is allowed.
	cond3 := BuildConditions([]*catalog.Table{tbl}, nil)
	if cond3.Rows != 2 {
		t.Fatal("nil-pool conditions broken")
	}
	// Many tables are truncated to MaxCondTokens.
	many := make([]*catalog.Table, 20)
	for i := range many {
		many[i] = tbl
	}
	cond4 := BuildConditions(many, pool)
	if cond4.Rows != MaxCondTokens {
		t.Fatalf("token cap broken: %d", cond4.Rows)
	}
}

// fakePlan builds a tiny real plan over the test table for feature tests.
func fakePlan(tbl *catalog.Table, rows, cost float64) plan.Node {
	return &plan.SeqScan{
		Base:  plan.Base{Out: tbl.Schema, EstRows: rows, EstCost: cost},
		Table: tbl,
	}
}

func TestEncodeCandidates(t *testing.T) {
	tbl := buildTestTable(t, nil)
	cands := []plan.Node{fakePlan(tbl, 10, 10), fakePlan(tbl, 20, 20)}
	toks := EncodeCandidates(cands)
	if len(toks) != 2 || len(toks[0]) != 1 || len(toks[0][0]) != NodeFeatureDim {
		t.Fatalf("token encoding wrong: %d", len(toks))
	}
}
