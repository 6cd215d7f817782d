// The constants below were recorded on x86-64. Every product in internal/nn
// and internal/armnet rounds on its own (float64(x*y)), so no GOAMD64 level
// — nor arm64 — fuses a multiply-add there. The constants still depend on the
// host: math.Exp's amd64 assembly takes a VFMADD path at run time on a CPU
// with AVX and FMA, they were recorded on such a CPU, and with that path
// forced off all six hashes differ.

//go:build amd64

package executor

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"testing"

	"neurdb/internal/aiengine"
	"neurdb/internal/models"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/txn"
)

// TestPredictGolden pins PREDICT's numbers: for a VALUE and a CLASS model —
// trained by the first PREDICT, fine-tuned by the three after it, each of the
// four predicting 300 rows — the SHA-256 of the predictions, of the training
// losses and of every stored version's layer weights, all as float64 bits,
// must equal the constants. They were recorded before the matrix kernels were
// register-tiled, so a kernel that changes one rounding anywhere in training
// or inference fails here, and so does a stored version written after its
// save.
func TestPredictGolden(t *testing.T) {
	want := map[string][3]string{
		"VALUE": {
			"7ae38ebb1003eec89f5e006170a4fa58d6e17d113ed6dc6ff458dfeb98b3e64f",
			"bafede8455f432d0d16c80c38d4d8fee81d8c30d9fceafe5663003dad747e335",
			"069a604b17081fad2b7970a21ed2bc2a7d23c2b3224f7fc3462635dd9ef19ce0",
		},
		"CLASS": {
			"3ca628a2f02b650e139bc34991f0c7380462fdeadbc8f7dec3c4207fc7a4fa73",
			"8b0bb866957761894fa0e26cb250d01e93fdb45cb5b2f26a355524937e90fa04",
			"0277b4e0c3c74e46d5fe02d249673917d8fe1a102f13fcb086b8662f516b59a5",
		},
	}
	for _, kind := range []string{"VALUE", "CLASS"} {
		t.Run(kind, func(t *testing.T) {
			db := newTestDB(t)
			tbl := db.mustCreate("r",
				rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
				rel.Column{Name: "a", Typ: rel.TypeInt},
				rel.Column{Name: "b", Typ: rel.TypeFloat},
				rel.Column{Name: "c", Typ: rel.TypeText},
				rel.Column{Name: "y", Typ: rel.TypeFloat},
			)
			next := 0
			grow := func(n int) {
				rows := make([]rel.Row, n)
				for i := range rows {
					a, b := next%9, float64((next/9)%5)/4
					y := float64(a)/8 + b*b/2 + float64(next%7)/20
					if kind == "CLASS" && y > 0.6 {
						y = 1
					} else if kind == "CLASS" {
						y = 0
					}
					rows[i] = rel.Row{rel.Int(int64(next)), rel.Int(int64(a)), rel.Float(b), rel.Text(fmt.Sprint("c", next%4)), rel.Float(y)}
					next++
				}
				db.insert(tbl, rows...)
			}
			grow(1500)

			preds, losses, weights := sha256.New(), sha256.New(), sha256.New()
			put := func(h hash.Hash, vs []float64) {
				for _, v := range vs {
					h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
				}
			}
			eng := aiengine.NewEngine(models.NewStore())
			mid := 0
			for step := 0; step < 4; step++ {
				grow(300)
				stmt, err := sqlparse.Parse(fmt.Sprintf(
					`PREDICT %s OF y FROM r WHERE id >= %d AND id < %d TRAIN ON a, b, c WITH id >= %d AND id < %d`,
					kind, next-300, next, next-1500, next-300))
				if err != nil {
					t.Fatal(err)
				}
				node, err := optimizer.New().PlanStmt(stmt, db.cat)
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunPredict(&Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}, eng, node.(*plan.Predict))
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Predictions) != 300 || res.Reused != (step > 0) {
					t.Fatalf("step %d: %d predictions, reused %v", step, len(res.Predictions), res.Reused)
				}
				put(preds, res.Predictions)
				put(losses, res.Train.Losses)
				mid = res.MID
			}
			for _, ts := range eng.Store.Versions(mid) {
				layers, _, err := eng.Store.Load(mid, ts)
				if err != nil {
					t.Fatal(err)
				}
				for _, l := range layers {
					for _, d := range l.Datas {
						put(weights, d)
					}
				}
			}
			for i, h := range []hash.Hash{preds, losses, weights} {
				if got := fmt.Sprintf("%x", h.Sum(nil)); got != want[kind][i] {
					t.Errorf("%s hash is %s, recorded %s", []string{"predictions", "losses", "weights"}[i], got, want[kind][i])
				}
			}
		})
	}
}
