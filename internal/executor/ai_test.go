package executor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/txn"
)

// referencePredict is PREDICT as two tasks, the way it ran before a task
// read a batch's purpose off the batch: Engine.Train or FineTune on the
// training rows, the version stored, then Engine.Infer of the stored version
// on the rows to predict, cut into batches of their own.
func referencePredict(ctx *Ctx, eng *aiengine.Engine, task *plan.Predict) ([]float64, error) {
	trainRows, err := runKeeping(ctx, task.Train, func(row rel.Row) bool { return !row[task.TargetIdx].IsNull() })
	if err != nil {
		return nil, err
	}
	fields := len(task.FeatureIdxs)
	codecs := buildCodecs(task.Table, task.FeatureIdxs, predictBuckets)
	encode := func(rows []rel.Row, col func(f int) int) *nn.Matrix {
		x := nn.NewMatrix(len(rows), fields)
		for i, row := range rows {
			for f := range task.FeatureIdxs {
				x.Set(i, f, float64(f*predictBuckets+codecs[f].encode(row[col(f)])))
			}
		}
		return x
	}
	tableCol := func(f int) int { return task.FeatureIdxs[f] }
	featurize := func(rows []rel.Row) (*nn.Matrix, *nn.Matrix) {
		y := nn.NewMatrix(len(rows), 1)
		for i, row := range rows {
			tv := row[task.TargetIdx].AsFloat()
			if task.Classification && tv > 0.5 {
				tv = 1
			} else if task.Classification {
				tv = 0
			}
			y.Set(i, 0, tv)
		}
		return encode(rows, tableCol), y
	}
	stepsPerEpoch := (len(trainRows) + predictBatchSize - 1) / predictBatchSize
	loader := aiengine.NewStreamingLoader(&chunkSource{
		rows: trainRows, size: predictBatchSize,
		epochs: min(predictSteps/max(stepsPerEpoch, 1)+1, predictMaxEpochs),
		rng:    rand.New(rand.NewSource(7)),
	}, featurize, predictWindow)
	defer loader.Close()
	var out *aiengine.TrainOutcome
	if view, ok := eng.Store.FindViewByName(task.ModelName); ok {
		out, err = eng.FineTune(view.MID, 0, armnet.FreezePrefixLayers, predictLR, loader)
	} else {
		out, err = eng.Train(models.Spec{
			Arch: "armnet", Fields: fields, Vocab: fields * predictBuckets,
			EmbDim: predictEmbDim, Hidden: predictHidden,
			Classification: task.Classification, Seed: 42,
		}, aiengine.TrainConfig{Name: task.ModelName, LR: predictLR}, loader)
	}
	if err != nil {
		return nil, err
	}

	var inferX *nn.Matrix
	if len(task.Rows) > 0 {
		inferX = encode(task.Rows, func(f int) int { return f })
	} else {
		rows, err := runKeeping(ctx, task.Infer, func(row rel.Row) bool {
			return !task.NullTargets || row[task.TargetIdx].IsNull()
		})
		if err != nil {
			return nil, err
		}
		inferX = encode(rows, tableCol)
	}
	src := &aiengine.SliceSource{}
	for start := 0; start < inferX.Rows; start += predictBatchSize {
		end := min(start+predictBatchSize, inferX.Rows)
		sub := nn.NewMatrix(end-start, inferX.Cols)
		copy(sub.Data, inferX.Data[start*inferX.Cols:end*inferX.Cols])
		src.Batches = append(src.Batches, &aiengine.Batch{X: sub})
	}
	return eng.Infer(out.MID, 0, src)
}

// storedLayers renders every stored version of the model bound to name, layer
// blob by layer blob.
func storedLayers(t *testing.T, store *models.Store, name string) string {
	t.Helper()
	view, ok := store.FindViewByName(name)
	if !ok {
		t.Fatalf("no model bound to %s", name)
	}
	var out strings.Builder
	for _, ts := range store.Versions(view.MID) {
		layers, _, err := store.Load(view.MID, ts)
		if err != nil {
			t.Fatal(err)
		}
		for lid, l := range layers {
			blob, err := nn.EncodeWeights(l)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%d/%d %x\n", ts, lid, blob)
		}
	}
	return out.String()
}

// TestPredictIsItsTwoTaskReference: a PREDICT is one task — training batches,
// then the rows to predict, through one connection, the version stored at the
// end — and must leave exactly what the two-task sequence leaves: the same
// predictions and the same stored layer bytes, on the first statement (a full
// training run, no frozen prefix) and on the three after it (fine-tunes over
// a window that slides), for VALUE and CLASS, for rows a WHERE clause selects
// (more than one batch of them) and for inline VALUES.
func TestPredictIsItsTwoTaskReference(t *testing.T) {
	for _, kind := range []string{"VALUE", "CLASS"} {
		for _, inline := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/inline=%v", kind, inline), func(t *testing.T) {
				db := newTestDB(t)
				tbl := db.mustCreate("r",
					rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
					rel.Column{Name: "a", Typ: rel.TypeInt},
					rel.Column{Name: "b", Typ: rel.TypeFloat},
					rel.Column{Name: "c", Typ: rel.TypeText},
					rel.Column{Name: "y", Typ: rel.TypeFloat},
				)
				row := func(i int) rel.Row {
					a, b := i%9, float64((i/9)%5)/4
					y := float64(a)/8 + b*b/2
					if kind == "CLASS" && y > 0.6 {
						y = 1
					} else if kind == "CLASS" {
						y = 0
					}
					return rel.Row{rel.Int(int64(i)), rel.Int(int64(a)), rel.Float(b), rel.Text(fmt.Sprint("c", i%4)), rel.Float(y)}
				}
				next := 0
				grow := func(n int) {
					rows := make([]rel.Row, n)
					for i := range rows {
						rows[i], next = row(next), next+1
					}
					db.insert(tbl, rows...)
				}
				grow(1500)

				got, want := aiengine.NewEngine(models.NewStore()), aiengine.NewEngine(models.NewStore())
				for step := 0; step < 4; step++ {
					grow(300)
					sql := fmt.Sprintf(`PREDICT %s OF y FROM r WHERE id >= %d AND id < %d TRAIN ON a, b, c WITH id >= %d AND id < %d`,
						kind, next-300, next, next-1500, next-300)
					if inline {
						sql = fmt.Sprintf(`PREDICT %s OF y FROM r TRAIN ON a, b, c WITH id >= %d AND id < %d VALUES (%d, 0.25, 'c1'), (7, %g, 'c3'), (2, 1, 'c%d')`,
							kind, next-1500, next-300, step, float64(step)/4, step)
					}
					stmt, err := sqlparse.Parse(sql)
					if err != nil {
						t.Fatal(err)
					}
					node, err := optimizer.New().PlanStmt(stmt, db.cat)
					if err != nil {
						t.Fatal(err)
					}
					task := node.(*plan.Predict)
					readCtx := func() *Ctx {
						return &Ctx{Mgr: db.mgr, Txn: db.mgr.Begin(txn.Snapshot, true), Cat: db.cat}
					}
					res, err := RunPredict(readCtx(), got, task)
					if err != nil {
						t.Fatal(err)
					}
					ref, err := referencePredict(readCtx(), want, task)
					if err != nil {
						t.Fatal(err)
					}
					wantN := 300
					if inline {
						wantN = 3
					}
					if len(res.Predictions) != wantN || len(ref) != wantN {
						t.Fatalf("step %d: %d predictions, the reference %d, want %d", step, len(res.Predictions), len(ref), wantN)
					}
					for i := range ref {
						if math.Float64bits(res.Predictions[i]) != math.Float64bits(ref[i]) {
							t.Fatalf("step %d: prediction %d is %v, the two-task reference says %v", step, i, res.Predictions[i], ref[i])
						}
					}
					if res.Reused != (step > 0) {
						t.Fatalf("step %d: Reused = %v", step, res.Reused)
					}
					if n := len(got.Store.Versions(res.MID)); n != step+1 {
						t.Fatalf("step %d: %d stored versions, want one per PREDICT", step, n)
					}
				}
				if g, w := storedLayers(t, got.Store, "r.y"), storedLayers(t, want.Store, "r.y"); g != w {
					t.Fatal("one-task PREDICTs stored other layer bytes than the two-task reference")
				}
			})
		}
	}
}
