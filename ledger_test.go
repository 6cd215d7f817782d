package neurdb_test

import (
	"runtime"
	"testing"

	"neurdb"
)

// ledgerRow is one count of the work ledger, with the ceiling it must stay
// under.
type ledgerRow struct {
	name    string
	got     float64
	ceiling float64
}

// TestWorkLedger pins counts of the engine's work that no host's speed
// moves, one row per count, each with a ceiling just above its reading;
// -v prints the table. A change that raises a count raises its ceiling and
// says why.
//
// The rows so far are one embedded ai_predict operation at one worker, as
// BenchmarkPredictSlidingWindow runs it: a 64-row text INSERT plus the
// prepared PREDICT that fine-tunes on the 8,000 rows before them and
// predicts the 64. The INSERT texts are built before counting. Measured
// (amd64, 60 operations): 546 allocations, 1.67 MB and 300–333 GC cycles per
// 1,000 operations while PREDICT held its window as rows and the memo keyed
// rows by strings; with the window encoded once into reused buffers and the
// memo keyed on ids, 365 allocations, 0.48 MB and 67–83 GC cycles. The model
// bytes saved are the fine-tuned head's weights, 1,089 float64s, per
// operation.
func TestWorkLedger(t *testing.T) {
	const window, fresh, ops = 8000, 64, 60
	cfg := neurdb.DefaultConfig()
	cfg.Workers = 1
	db := neurdb.Open(cfg)
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE review (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, c DOUBLE, score DOUBLE)`); err != nil {
		t.Fatal(err)
	}
	insertReviews(t, db, 0, window)
	if _, err := db.Exec(`ANALYZE review`); err != nil {
		t.Fatal(err)
	}
	st, err := db.Prepare(`PREDICT VALUE OF score FROM review WHERE id >= ? AND id < ? TRAIN ON a, b, c WITH id >= ? AND id < ?`)
	if err != nil {
		t.Fatal(err)
	}
	const warm = 3 // the first trains the model, the next fill the pools
	texts := make([]string, warm+ops)
	for i := range texts {
		texts[i] = reviewInsert(window+i*fresh, window+(i+1)*fresh)
	}
	op := func(i int) {
		next := window + i*fresh
		if _, err := db.Exec(texts[i]); err != nil {
			t.Fatal(err)
		}
		res, err := st.Exec(next, next+fresh, next-window, next)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Predictions) != fresh {
			t.Fatalf("%d predictions, want %d", len(res.Predictions), fresh)
		}
	}
	for i := range warm {
		op(i)
	}
	var before, after runtime.MemStats
	runtime.GC()
	stored := db.ModelStore().StorageBytes()
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+ops; i++ {
		op(i)
	}
	runtime.ReadMemStats(&after)
	saved := db.ModelStore().StorageBytes() - stored

	rows := []ledgerRow{
		{"ai_predict: allocations per operation", float64(after.Mallocs-before.Mallocs) / ops, 400},
		{"ai_predict: bytes per operation", float64(after.TotalAlloc-before.TotalAlloc) / ops, 520_000},
		{"ai_predict: GC cycles per 1,000 operations", float64(after.NumGC-before.NumGC) * 1000 / ops, 120},
		{"ai_predict: model bytes saved per operation", float64(saved) / ops, 8712},
	}
	for _, r := range rows {
		t.Logf("%-45s %12.1f   ceiling %10.0f", r.name, r.got, r.ceiling)
		if r.got > r.ceiling {
			t.Errorf("%s: %.1f, ceiling %.0f", r.name, r.got, r.ceiling)
		}
	}
}
