package neurdb

import (
	"fmt"
	"strings"
	"testing"
)

// TestIntsAbove2To53StayDistinct: 2^53 and 2^53+1 round to one float64,
// and comparing INTs through float64 made them one value — the filter
// returned both rows, GROUP BY made one group and ORDER BY kept them in
// heap order. INT comparison is exact on every route: the heap scan's
// predicate kernel, the B-tree and the hash index, the aggregate's group key
// and the sort.
func TestIntsAbove2To53StayDistinct(t *testing.T) {
	for _, index := range []string{"", "CREATE INDEX b_id ON b (id)", "CREATE INDEX b_id ON b (id) USING HASH"} {
		name := index
		if name == "" {
			name = "no index"
		}
		t.Run(name, func(t *testing.T) {
			db := openTest(t)
			mustExec(t, db, `CREATE TABLE b (id INT, v INT)`)
			mustExec(t, db, `INSERT INTO b VALUES (9007199254740992, 1), (9007199254740993, 2)`)
			const eq = `SELECT v FROM b WHERE id = 9007199254740993`
			if index != "" {
				// Enough rows with v = 0 that the optimizer takes the index.
				mustExec(t, db, index)
				var sb strings.Builder
				sb.WriteString("INSERT INTO b VALUES ")
				for i := 0; i < 3000; i++ {
					if i > 0 {
						sb.WriteByte(',')
					}
					fmt.Fprintf(&sb, "(%d, 0)", i)
				}
				mustExec(t, db, sb.String())
				mustExec(t, db, `ANALYZE b`)
				if plan := explainText(t, db, eq); !strings.Contains(plan, "IndexScan(b") {
					t.Fatalf("the repro needs the index scan, got:\n%s", plan)
				}
			}
			for _, c := range []struct {
				sql  string
				args []any
				want string
			}{
				{eq, nil, "[2]"},
				{`SELECT v FROM b WHERE id = ?`, []any{int64(9007199254740992)}, "[1]"},
				{`SELECT v FROM b WHERE id > 9007199254740992`, nil, "[2]"},
				{`SELECT COUNT(*) FROM b WHERE v > 0 GROUP BY id`, nil, "[1 1]"},
				{`SELECT v FROM b WHERE v > 0 ORDER BY id DESC`, nil, "[2 1]"},
			} {
				var got []int64
				for _, row := range mustExecArgs(t, db, c.sql, c.args...).Rows {
					got = append(got, row[0].AsInt())
				}
				if s := fmt.Sprint(got); s != c.want {
					t.Errorf("%s %v: got %s, want %s", c.sql, c.args, s, c.want)
				}
			}
		})
	}
}
