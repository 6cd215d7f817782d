package neurdb_test

import (
	"fmt"
	"strings"
	"testing"

	"neurdb"
)

// loadBenchKV creates kv(id PRIMARY KEY, val) with n rows id = val and
// fresh statistics: the shape of the benchmark referee's kv and accounts
// tables.
func loadBenchKV(b *testing.B, n int) *neurdb.DB {
	b.Helper()
	db := neurdb.Open(neurdb.DefaultConfig())
	if _, err := db.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, val INT)`); err != nil {
		b.Fatal(err)
	}
	const chunk = 5000
	for base := 0; base < n; base += chunk {
		var sb strings.Builder
		sb.WriteString("INSERT INTO kv VALUES ")
		for i := base; i < base+chunk && i < n; i++ {
			if i > base {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d, %d)", i, i)
		}
		if _, err := db.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`ANALYZE kv`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkIndexRangeScan50 times a prepared 50-row primary-key range over
// 200,000 rows, the statement that set kv_read's throughput when it ran as
// a heap scan.
func BenchmarkIndexRangeScan50(b *testing.B) {
	const n = 200_000
	db := loadBenchKV(b, n)
	st, err := db.Prepare(`SELECT id, val FROM kv WHERE id >= ? AND id < ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (i * 7919) % (n - 50)
		res, err := st.Exec(lo, lo+50)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 50 {
			b.Fatalf("range at %d returned %d rows", lo, len(res.Rows))
		}
	}
}

// BenchmarkPointUpdateIndexed times a prepared autocommit UPDATE ... WHERE
// id = ? over 20,000 rows, oltp_transfer's debit and credit statement.
func BenchmarkPointUpdateIndexed(b *testing.B) {
	const n = 20_000
	db := loadBenchKV(b, n)
	st, err := db.Prepare(`UPDATE kv SET val = val + ? WHERE id = ?`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.Exec(1, (i*7919)%n)
		if err != nil {
			b.Fatal(err)
		}
		if res.Affected != 1 {
			b.Fatalf("update affected %d rows", res.Affected)
		}
	}
}
