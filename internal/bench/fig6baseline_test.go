package bench

import (
	"math/rand"
	"testing"

	"neurdb/internal/aiengine"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

func TestBaselineTrainsButSlowerPath(t *testing.T) {
	// The baseline must converge too (same model) — only its data path
	// differs. Fig 6 measures the performance delta; here we verify
	// functional equivalence.
	rows := make([]rel.Row, 0, 2048)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2048; i++ {
		a, b := r.Intn(32), r.Intn(32)
		label := float64(a%7)/7.0*0.5 + float64(b%7)/7.0*0.5
		rows = append(rows, rel.Row{rel.Int(int64(a)), rel.Int(int64(b)), rel.Float(label)})
	}
	src := &rowChunks{rows: rows, size: 128}
	feat := func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		x := nn.NewMatrix(len(rs), 2)
		y := nn.NewMatrix(len(rs), 1)
		for i, row := range rs {
			x.Set(i, 0, row[0].AsFloat())
			x.Set(i, 1, row[1].AsFloat())
			y.Set(i, 0, row[2].AsFloat())
		}
		return x, y
	}
	spec := models.Spec{Arch: "armnet", Fields: 2, Vocab: 32, EmbDim: 4, Hidden: 16, Seed: 1}
	out, err := BaselineTrain(spec, aiengine.TrainConfig{LR: 0.02}, src, feat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 16 || out.Samples != 2048 {
		t.Fatalf("batches=%d samples=%d", out.Batches, out.Samples)
	}
	if out.Losses[len(out.Losses)-1] >= out.Losses[0] {
		t.Fatalf("baseline loss did not decrease: %v -> %v", out.Losses[0], out.Losses[len(out.Losses)-1])
	}
}

type rowChunks struct {
	rows []rel.Row
	size int
	pos  int
}

func (rc *rowChunks) Next() ([]rel.Row, bool) {
	if rc.pos >= len(rc.rows) {
		return nil, false
	}
	end := rc.pos + rc.size
	if end > len(rc.rows) {
		end = len(rc.rows)
	}
	chunk := rc.rows[rc.pos:end]
	rc.pos = end
	return chunk, true
}

func TestTextRoundTrip(t *testing.T) {
	rows := []rel.Row{
		{rel.Int(1), rel.Float(2.5), rel.Text("abc"), rel.Bool(true), rel.Null()},
		{rel.Int(-3), rel.Float(0), rel.Text("x"), rel.Bool(false), rel.Int(9)},
	}
	text := encodeRowsText(rows)
	back, err := decodeRowsText(text, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("rows = %d", len(back))
	}
	if back[0][0].AsFloat() != 1 || back[0][1].AsFloat() != 2.5 || back[0][2].String() != "abc" {
		t.Fatalf("row0 = %v", back[0])
	}
	if !back[0][3].AsBool() || !back[0][4].IsNull() {
		t.Fatalf("row0 tail = %v", back[0])
	}
	if _, err := decodeRowsText("1,2\n", 3); err == nil {
		t.Fatal("arity mismatch should error")
	}
}
