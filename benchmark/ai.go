package main

import (
	"fmt"
	"math"
	"sync/atomic"

	"neurdb"
)

// ai_predict: the paper's in-database analytics path. Reviews keep arriving
// (64 per operation) and each operation asks the database to predict the
// score of the rows that just arrived, training on the 8,000 rows before
// them. The relation between features and score drifts slowly with id, so a
// model that stops adapting falls behind.
const (
	aiWindow    = 8_000
	aiFresh     = 64
	aiLevels    = 32   // each feature takes the values 0/32 .. 31/32
	aiMAEFactor = 0.25 // ceiling = this share of a constant predictor's error
)

// aiScore is the target function. d grows by 1 every 50,000 ids: the weight
// of a rises and the weight of b*b falls as the table grows.
func aiScore(id int, a, b, c float64) float64 {
	d := float64(id) / 50_000
	return (2+d)*a + (1-d)*b*b - 1.5*c + 0.5*a*c
}

type aiInst struct {
	seed   int64
	window int
	next   atomic.Int64 // first id not yet inserted
	// ceiling is the mean absolute error an operation's predictions may
	// have before it counts as failed. It is fixed by the seed: a share of
	// the error of predicting the initial window's mean for every row,
	// which is what a model that learned nothing would score. The engine
	// today scores about a tenth of the ceiling.
	ceiling float64
}

func newAI(seed int64, scale int) instance {
	return &aiInst{seed: seed, window: max(aiWindow/scale, 4*aiFresh)}
}

// aiRow generates review id: three features and the score they imply.
func (a *aiInst) aiRow(id int) (x [3]float64, score float64) {
	h := mix(a.seed, uint64(id))
	for i := range x {
		x[i] = float64((h>>(8*i))%aiLevels) / aiLevels
	}
	return x, aiScore(id, x[0], x[1], x[2])
}

func (a *aiInst) appendRows(buf []byte, lo, hi int) []byte {
	for id := lo; id < hi; id++ {
		if id > lo {
			buf = append(buf, ',')
		}
		x, y := a.aiRow(id)
		buf = appendTuple(buf, id, x[0], x[1], x[2], y)
	}
	return buf
}

func (a *aiInst) load(db *neurdb.DB) error {
	if err := execAll(db, `CREATE TABLE review (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, c DOUBLE, score DOUBLE)`); err != nil {
		return err
	}
	buf := a.appendRows([]byte(`INSERT INTO review VALUES `), 0, a.window)
	if err := execAll(db, string(buf), `ANALYZE review`); err != nil {
		return err
	}
	a.next.Store(int64(a.window))
	mean := 0.0
	for id := 0; id < a.window; id++ {
		_, y := a.aiRow(id)
		mean += y / float64(a.window)
	}
	dev := 0.0
	for id := 0; id < a.window; id++ {
		_, y := a.aiRow(id)
		dev += math.Abs(y-mean) / float64(a.window)
	}
	a.ceiling = aiMAEFactor * dev
	return nil
}

func (a *aiInst) verify(db *neurdb.DB) error {
	n, err := scalar(db, `SELECT COUNT(*) FROM review`)
	if err != nil {
		return err
	}
	if want := a.next.Load(); int64(n) != want {
		return fmt.Errorf("review holds %d rows, want %d acknowledged", int64(n), want)
	}
	return nil
}

type aiWorker struct {
	inst    *aiInst
	c       conn
	predict stmt
	buf     []byte
}

func (a *aiInst) newWorker(c conn, _ int, _ uint64) (worker, error) {
	w := &aiWorker{inst: a, c: c}
	var err error
	// WHERE selects the rows to predict, WITH the rows to train on. The
	// statement names no model: the first call trains one for
	// review.score, later calls fine-tune it.
	w.predict, err = c.prepare("predict",
		`PREDICT VALUE OF score FROM review WHERE id >= ? AND id < ? TRAIN ON a, b, c WITH id >= ? AND id < ?`)
	return w, err
}

// op inserts 64 fresh reviews, then predicts their scores from a model
// trained on the window before them. Predictions come back in heap order,
// which is id order for this append-only table.
func (w *aiWorker) op(st *opStats) error {
	a := w.inst
	lo := int(a.next.Add(aiFresh)) - aiFresh
	w.buf = a.appendRows(append(w.buf[:0], `INSERT INTO review VALUES `...), lo, lo+aiFresh)
	n, err := w.c.text("insert_rows", string(w.buf), nil)
	if err != nil {
		return err
	}
	if n != aiFresh {
		return fmt.Errorf("INSERT affected %d rows, want %d", n, aiFresh)
	}
	st.rows += n
	st.txns++
	st.userBytes += aiFresh * 5 * 8

	i, absErr := 0, 0.0
	n, err = w.predict.run(func(r scanner) error {
		var p float64
		if err := r.Scan(&p); err != nil {
			return err
		}
		_, y := a.aiRow(lo + i)
		absErr += math.Abs(p - y)
		i++
		return nil
	}, lo, lo+aiFresh, lo-a.window, lo)
	if err != nil {
		return err
	}
	if n != aiFresh {
		return fmt.Errorf("PREDICT returned %d predictions, want %d", n, aiFresh)
	}
	if mae := absErr / aiFresh; !(mae <= a.ceiling) {
		return fmt.Errorf("PREDICT over [%d,%d): mean absolute error %.4f above ceiling %.4f", lo, lo+aiFresh, mae, a.ceiling)
	}
	st.rows += n
	st.predicts++
	return nil
}

// modelVersions counts the stored versions of the model PREDICT binds to
// review.score: one from the initial training, one more per fine-tune.
func modelVersions(st *stack) int {
	view, ok := st.db.ModelStore().FindViewByName("review.score")
	if !ok {
		return 0
	}
	return len(st.db.ModelStore().Versions(view.MID))
}
