package neurdb_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"neurdb"
)

// The shape of the benchmark referee's olap_dashboard tables: facts(id,
// dim_id, region, qty, amount) of 160,000 rows against a 1,024-page pool,
// and dim(id, cat) of 1,000 rows.
const (
	dashFacts   = 160_000
	dashPool    = 1_024
	dashDims    = 1_000
	dashCats    = 20
	dashRegions = 16
	dashQtys    = 50
	dashTopN    = 100
	dashRange   = 5_000
)

// dashMix is a splitmix64 step: every column of a row is a function of
// (seed, id).
func dashMix(seed int64, x uint64) uint64 {
	z := uint64(seed) + (x+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// loadDashboard creates and fills facts and dim and analyzes both.
func loadDashboard(b *testing.B, seed int64) *neurdb.DB {
	b.Helper()
	db := neurdb.Open(neurdb.Config{BufferPoolPages: dashPool})
	for _, q := range []string{
		`CREATE TABLE facts (id INT PRIMARY KEY, dim_id INT, region INT, qty INT, amount DOUBLE)`,
		`CREATE TABLE dim (id INT PRIMARY KEY, cat INT)`,
	} {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	insert := func(table string, n int, row func(sb *strings.Builder, i int)) {
		const chunk = 8192
		for base := 0; base < n; base += chunk {
			var sb strings.Builder
			sb.WriteString("INSERT INTO " + table + " VALUES ")
			for i := base; i < min(base+chunk, n); i++ {
				if i > base {
					sb.WriteByte(',')
				}
				row(&sb, i)
			}
			if _, err := db.Exec(sb.String()); err != nil {
				b.Fatal(err)
			}
		}
	}
	insert("facts", dashFacts, func(sb *strings.Builder, i int) {
		h := dashMix(seed, uint64(i))
		fmt.Fprintf(sb, "(%d,%d,%d,%d,%g)", i, h%dashDims, (h>>12)%dashRegions, (h>>24)%dashQtys, float64((h>>36)%4000)*0.25)
	})
	insert("dim", dashDims, func(sb *strings.Builder, i int) {
		fmt.Fprintf(sb, "(%d,%d)", i, dashMix(seed^0x5ca1ab1e, uint64(i))%dashCats)
	})
	for _, q := range []string{`ANALYZE facts`, `ANALYZE dim`} {
		if _, err := db.Exec(q); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkDashboardRefresh is the referee's olap_dashboard operation run
// embedded: one op runs the four prepared panels (filtered GROUP BY, join
// then GROUP BY, top 100 by amount, a 5,000-row id range) with fresh
// parameters. It reports ms per refresh and heap_B/row, the live heap the
// load added per stored row (versions, rows, values and the primary-key
// indexes): the memory side of the row layout that every scan streams.
func BenchmarkDashboardRefresh(b *testing.B) {
	before := liveHeap()
	db := loadDashboard(b, 4241)
	perRow := (float64(liveHeap()) - float64(before)) / (dashFacts + dashDims)
	panels := []struct {
		sql  string
		rows int // every refresh returns this many rows
	}{
		{`SELECT region, COUNT(*), SUM(amount) FROM facts WHERE qty < ? GROUP BY region`, dashRegions},
		{`SELECT dim.cat, COUNT(*), SUM(facts.amount) FROM facts JOIN dim ON facts.dim_id = dim.id WHERE facts.qty >= ? GROUP BY dim.cat`, dashCats},
		{`SELECT id, amount FROM facts WHERE qty = ? ORDER BY amount DESC LIMIT 100`, dashTopN},
		{`SELECT id, amount FROM facts WHERE id >= ? AND id < ?`, dashRange},
	}
	stmts := make([]*neurdb.Stmt, len(panels))
	for p, pn := range panels {
		st, err := db.Prepare(pn.sql)
		if err != nil {
			b.Fatal(err)
		}
		stmts[p] = st
	}
	refresh := func(i int) {
		lo := (i * 7919) % (dashFacts - dashRange)
		args := [][]any{{10 + i%31}, {i % 25}, {i % dashQtys}, {lo, lo + dashRange}}
		for p, st := range stmts {
			res, err := st.Exec(args[p]...)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != panels[p].rows {
				b.Fatalf("panel %d returned %d rows, want %d", p, len(res.Rows), panels[p].rows)
			}
		}
	}
	refresh(0) // warm the plan cache and the pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		refresh(i)
	}
	b.ReportMetric(b.Elapsed().Seconds()*1e3/float64(b.N), "ms/refresh")
	b.ReportMetric(perRow, "heap_B/row")
}
