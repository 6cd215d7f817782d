package neurdb

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"neurdb/internal/rel"
)

// TestIntsAbove2To53StayDistinct: 2^53 and 2^53+1 round to one float64,
// and comparing INTs through float64 made them one value — the filter
// returned both rows, GROUP BY made one group and ORDER BY kept them in
// heap order. INT comparison is exact on every route: the heap scan's
// predicate kernel, the B-tree, the aggregate's group key and the sort.
func TestIntsAbove2To53StayDistinct(t *testing.T) {
	for _, index := range []string{"", "CREATE INDEX b_id ON b (id)"} {
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

// TestIntMinLiteral: the literal -9223372036854775808 is the least INT. The
// parser read 9223372036854775808 first, which is out of INT's range, so it
// became a DOUBLE before its sign was applied: the INSERT stored
// -9.223372036854776e+18. The literal is an INT in an INSERT, a comparison
// and an IN list, embedded and prepared.
func TestIntMinLiteral(t *testing.T) {
	for _, route := range []string{"embedded", "prepared"} {
		t.Run(route, func(t *testing.T) {
			db := openTest(t)
			exec := func(sql string) *Result {
				t.Helper()
				if route == "embedded" {
					return mustExec(t, db, sql)
				}
				st, err := db.Prepare(sql)
				if err != nil {
					t.Fatalf("Prepare(%q): %v", sql, err)
				}
				defer st.Close()
				res, err := st.Exec()
				if err != nil {
					t.Fatalf("Exec(%q): %v", sql, err)
				}
				return res
			}
			mustExec(t, db, `CREATE TABLE t (id INT PRIMARY KEY, x INT)`)
			exec(`INSERT INTO t VALUES (1, -9223372036854775808), (2, -9223372036854775807)`)
			for _, sql := range []string{
				`SELECT x FROM t WHERE id = 1`,
				`SELECT x FROM t WHERE x = -9223372036854775808`,
				`SELECT x FROM t WHERE x IN (-9223372036854775808, 5)`,
			} {
				rows := exec(sql).Rows
				if len(rows) != 1 {
					t.Fatalf("%s: %d rows, want 1", sql, len(rows))
				}
				if v := rows[0][0]; v.Type() != rel.TypeInt || v.AsInt() != math.MinInt64 {
					t.Errorf("%s: got %#v, want rel.Int(-9223372036854775808)", sql, v)
				}
			}
		})
	}
}
