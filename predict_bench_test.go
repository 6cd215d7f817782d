package neurdb_test

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"neurdb"
)

// reviewRow is review id's three features (32 levels each) and the score
// they imply, a relation that drifts slowly with id: the shape of the
// benchmark referee's ai_predict rows.
func reviewRow(id int) (x [3]float64, score float64) {
	h := uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 29
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 32
	for i := range x {
		x[i] = float64((h>>(8*i))%32) / 32
	}
	d := float64(id) / 50_000
	return x, (2+d)*x[0] + (1-d)*x[1]*x[1] - 1.5*x[2] + 0.5*x[0]*x[2]
}

// reviewInsert is the INSERT of reviews [lo, hi).
func reviewInsert(lo, hi int) string {
	var sb strings.Builder
	sb.WriteString("INSERT INTO review VALUES ")
	for id := lo; id < hi; id++ {
		if id > lo {
			sb.WriteByte(',')
		}
		x, y := reviewRow(id)
		fmt.Fprintf(&sb, "(%d, %g, %g, %g, %g)", id, x[0], x[1], x[2], y)
	}
	return sb.String()
}

func insertReviews(tb testing.TB, db *neurdb.DB, lo, hi int) {
	tb.Helper()
	if _, err := db.Exec(reviewInsert(lo, hi)); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkPredictSlidingWindow is the referee's ai_predict operation run
// embedded: INSERT 64 fresh reviews, then PREDICT their scores with a model
// fine-tuned on the 8,000 rows before them. The table starts at the window's
// size or eight times it: an operation's cost follows the window, not the
// table.
func BenchmarkPredictSlidingWindow(b *testing.B) {
	const window, fresh = 8000, 64
	for _, rows := range []int{window, 8 * window} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			db := neurdb.Open(neurdb.DefaultConfig())
			if _, err := db.Exec(`CREATE TABLE review (id INT PRIMARY KEY, a DOUBLE, b DOUBLE, c DOUBLE, score DOUBLE)`); err != nil {
				b.Fatal(err)
			}
			for lo := 0; lo < rows; lo += window {
				insertReviews(b, db, lo, lo+window)
			}
			if _, err := db.Exec(`ANALYZE review`); err != nil {
				b.Fatal(err)
			}
			st, err := db.Prepare(`PREDICT VALUE OF score FROM review WHERE id >= ? AND id < ? TRAIN ON a, b, c WITH id >= ? AND id < ?`)
			if err != nil {
				b.Fatal(err)
			}
			next := rows
			op := func() {
				insertReviews(b, db, next, next+fresh)
				res, err := st.Exec(next, next+fresh, next-window, next)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Predictions) != fresh {
					b.Fatalf("%d predictions, want %d", len(res.Predictions), fresh)
				}
				var mae float64
				for i, p := range res.Predictions {
					_, y := reviewRow(next + i)
					mae += math.Abs(p-y) / fresh
				}
				if mae > 0.2 {
					b.Fatalf("mean absolute error %.3f: the model stopped learning", mae)
				}
				next += fresh
			}
			op() // the first call trains the model; the timed ones fine-tune it
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}
