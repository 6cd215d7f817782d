package neurdb

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// seedReviews creates review(id, a, b, c, score) with n labelled rows.
func seedReviews(t *testing.T, db *DB, n int) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE review (id INT PRIMARY KEY, a INT, b INT, c INT, score DOUBLE)`)
	var sb strings.Builder
	sb.WriteString("INSERT INTO review VALUES ")
	for i := 0; i < n; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		a, b, c := i%7, (i/7)%5, (i/35)%3
		fmt.Fprintf(&sb, "(%d,%d,%d,%d,%g)", i, a, b, c, float64(a)/6+float64(b*c)/8)
	}
	mustExec(t, db, sb.String())
	mustExec(t, db, `ANALYZE review`)
}

// TestPredictIsOneTask: a PREDICT is one task, whether it trains the model or
// fine-tunes it: it answers every row to predict, a statement with none only
// trains, and every statement stores exactly one version. No loss series is
// left in the monitor.
func TestPredictIsOneTask(t *testing.T) {
	db := openTest(t)
	seedReviews(t, db, 1200)

	statements := []string{
		`PREDICT VALUE OF score FROM review WHERE id >= 1000 AND id < 1150 TRAIN ON a, b, c WITH id < 1000`,
		`PREDICT VALUE OF score FROM review WHERE id >= 1050 AND id < 1200 TRAIN ON a, b, c WITH id >= 50 AND id < 1050`,
		`PREDICT VALUE OF score FROM review TRAIN ON a, b, c VALUES (1, 2, 0), (6, 4, 2)`,
		`PREDICT VALUE OF score FROM review WHERE id < 0 TRAIN ON a, b, c`, // nothing to predict: the task only trains
	}
	for i, sql := range statements {
		res := mustExec(t, db, sql)
		if want := []int{150, 150, 2, 0}[i]; len(res.Predictions) != want {
			t.Fatalf("statement %d: %d predictions, want %d", i, len(res.Predictions), want)
		}
		view, ok := db.ModelStore().FindViewByName("review.score")
		if !ok {
			t.Fatal("no model bound to review.score")
		}
		if n := len(db.ModelStore().Versions(view.MID)); n != i+1 {
			t.Fatalf("statement %d: %d stored versions, want %d", i, n, i+1)
		}
	}
	if loss := db.Monitor().Mean("predict.review.score.loss"); loss != 0 {
		t.Fatalf("a PREDICT left a loss series in the monitor: mean %g", loss)
	}
}

// TestPredictRefusesOtherFeatureList: the model of table.target answers for
// the feature columns it was trained on. A statement that lists others — as
// many or fewer — is refused before it extracts a row or runs a task, with
// both lists in the error; it stores nothing, and the original statement
// keeps working.
func TestPredictRefusesOtherFeatureList(t *testing.T) {
	db := openTest(t)
	seedReviews(t, db, 400)

	const original = `PREDICT VALUE OF score FROM review TRAIN ON a, b VALUES (1, 2)`
	mustExec(t, db, original)
	view, ok := db.ModelStore().FindViewByName("review.score")
	if !ok {
		t.Fatal("no model bound to review.score")
	}
	for _, c := range []struct{ sql, listed string }{
		{`PREDICT VALUE OF score FROM review TRAIN ON b, c VALUES (1, 2)`, "(b, c)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON a VALUES (1)`, "(a)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON b, a VALUES (1, 2)`, "(b, a)"},
		{`PREDICT VALUE OF score FROM review TRAIN ON *`, "(a, b, c)"},
	} {
		_, err := db.Exec(c.sql)
		if err == nil || !strings.Contains(err.Error(), "trained on (a, b)") || !strings.Contains(err.Error(), c.listed) {
			t.Fatalf("%s: error %v, want one naming (a, b) and %s", c.sql, err, c.listed)
		}
	}
	if n := len(db.ModelStore().Versions(view.MID)); n != 1 {
		t.Fatalf("refused statements stored versions: %d, want 1", n)
	}
	if res := mustExec(t, db, original); len(res.Predictions) != 1 {
		t.Fatalf("the original statement after the refusals: %d predictions", len(res.Predictions))
	}
	if v, _ := db.ModelStore().FindViewByName("review.score"); v.MID != view.MID || len(db.ModelStore().Versions(v.MID)) != 2 {
		t.Fatal("the original statement did not fine-tune the model it trained")
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines after %s, %d before:\n%s", runtime.NumGoroutine(), after, base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPredictLeaksNoGoroutine: a PREDICT's task runs on the statement's
// goroutine, next to the one its streaming loader starts, and leaves neither
// behind — after twenty statements that succeed, and after a task whose
// prediction batches fail while more are still queued. No statement makes a
// prediction batch fail, so the failing task is the one a PREDICT runs, a
// fine-tune of the model it stored, started on the database's engine.
func TestPredictLeaksNoGoroutine(t *testing.T) {
	db := openTest(t)
	seedReviews(t, db, 1200)
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		lo := 10 * i
		mustExec(t, db, fmt.Sprintf(`PREDICT VALUE OF score FROM review WHERE id >= %d AND id < %d TRAIN ON a, b, c WITH id >= %d AND id < %d`,
			lo+1000, lo+1100, lo, lo+1000))
	}
	waitGoroutines(t, base, "twenty PREDICTs")

	view, ok := db.ModelStore().FindViewByName("review.score")
	if !ok {
		t.Fatal("no model bound to review.score")
	}
	// Eight labelled batches train; the rest arrive without labels and one
	// field too wide, which fails the first prediction with more batches
	// queued behind it.
	batches := 0
	loader := aiengine.NewStreamingLoader(&rowChunks{rows: make([]rel.Row, 128*16), size: 128}, func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		if batches++; batches > 8 {
			return nn.NewMatrix(len(rs), 4), nil
		}
		x := nn.NewMatrix(len(rs), 3) // field f's ids are f*32 + bucket, as PREDICT's featurizer makes them
		for i := range rs {
			for f := 0; f < 3; f++ {
				x.Set(i, f, float64(f*32+i%32))
			}
		}
		return x, nn.NewMatrix(len(rs), 1)
	}, 4)
	_, err := db.AIEngine().FineTune(view.MID, 0, armnet.FreezePrefixLayers, 0.02, loader)
	loader.Close()
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("a fine-tune whose prediction batches fail: %v", err)
	}
	waitGoroutines(t, base, "a task that failed while predicting")
	if n := len(db.ModelStore().Versions(view.MID)); n != 20 {
		t.Fatalf("%d stored versions after twenty PREDICTs and a failed task, want 20", n)
	}
}

// rowChunks hands out rows in chunks of size.
type rowChunks struct {
	rows []rel.Row
	size int
}

func (rc *rowChunks) Next() ([]rel.Row, bool) {
	if len(rc.rows) == 0 {
		return nil, false
	}
	n := min(rc.size, len(rc.rows))
	chunk := rc.rows[:n]
	rc.rows = rc.rows[n:]
	return chunk, true
}
