package neurdb_test

import (
	"strconv"
	"testing"

	"neurdb"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/stats"
)

// The benchmark referee's kv_read load: 200,000 rows of (id, id%97, val), in
// multi-row INSERTs of 8,192 rows, then ANALYZE.
const (
	bulkRows  = 200_000
	bulkChunk = 8192
)

// bulkVal is a kv row's val: a multiple of 0.5, as the referee writes it.
func bulkVal(id int) float64 {
	h := uint64(id)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	h ^= h >> 31
	return float64(h%1_000_003) * 0.5
}

// bulkInsertText is the INSERT of rows [lo, hi), formatted as the referee
// formats it.
func bulkInsertText(lo, hi int) string {
	buf := append(make([]byte, 0, 32*(hi-lo)), "INSERT INTO kv VALUES "...)
	for i := lo; i < hi; i++ {
		if i > lo {
			buf = append(buf, ',')
		}
		buf = append(buf, '(')
		buf = strconv.AppendInt(buf, int64(i), 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, int64(i%97), 10)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, bulkVal(i), 'f', -1, 64)
		buf = append(buf, ')')
	}
	return string(buf)
}

// bulkRowsOf is what the load leaves in kv's heap, as ANALYZE reads it.
func bulkRowsOf(n int) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(i % 97)), rel.Float(bulkVal(i))}
	}
	return rows
}

// TestBulkLoadAllocs pins what the two CPU-bound steps of a bulk load
// allocate: parsing one 8,192-row INSERT, and ANALYZE's Rebuild over the
// 200,000 rows. The ceilings sit a little above the measured values.
//
// Measured (amd64): the parse took 90,160 allocations while the lexer built
// a token array for the whole text before parsing, every literal was its own
// Lit and each tuple grew 1 -> 2 -> 4; with one token of lookahead, a literal
// slab and tuples sized once it takes 8,248. Rebuild took 2,116 while it also
// counted distinct numbers in a map, and takes 7 since it counts them from
// the sort it already does.
func TestBulkLoadAllocs(t *testing.T) {
	text := bulkInsertText(0, bulkChunk)
	parse := testing.AllocsPerRun(5, func() {
		if _, err := sqlparse.Parse(text); err != nil {
			t.Fatal(err)
		}
	})
	rows := bulkRowsOf(bulkRows)
	ts := stats.NewTableStats(3)
	rebuild := testing.AllocsPerRun(3, func() { ts.Rebuild(rows) })
	t.Logf("parse of an 8,192-row INSERT: %.0f allocs; Rebuild over %d rows: %.0f allocs", parse, bulkRows, rebuild)
	if parse > 8300 {
		t.Errorf("parse of an 8,192-row INSERT: %.0f allocs, ceiling 8,300", parse)
	}
	if rebuild > 10 {
		t.Errorf("Rebuild over %d rows: %.0f allocs, ceiling 10", bulkRows, rebuild)
	}
}

// BenchmarkBulkLoad is kv_read's setup run embedded: a durable database,
// 200,000 rows in INSERTs of 8,192, then ANALYZE. The INSERT texts are built
// before the timer starts.
func BenchmarkBulkLoad(b *testing.B) {
	stmts := []string{`CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val DOUBLE)`}
	for lo := 0; lo < bulkRows; lo += bulkChunk {
		stmts = append(stmts, bulkInsertText(lo, min(lo+bulkChunk, bulkRows)))
	}
	stmts = append(stmts, `ANALYZE kv`)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := neurdb.DefaultConfig()
		cfg.DataDir = b.TempDir()
		cfg.WalSync = "commit"
		b.StartTimer()
		db, err := neurdb.OpenDB(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, sql := range stmts {
			if _, err := db.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkBulkLoadParse is the parse of one 8,192-row INSERT alone.
func BenchmarkBulkLoadParse(b *testing.B) {
	text := bulkInsertText(0, bulkChunk)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sqlparse.Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBulkLoadRebuild is ANALYZE's Rebuild over the 200,000 rows alone.
func BenchmarkBulkLoadRebuild(b *testing.B) {
	rows := bulkRowsOf(bulkRows)
	ts := stats.NewTableStats(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.Rebuild(rows)
	}
}
