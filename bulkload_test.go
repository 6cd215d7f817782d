package neurdb_test

import (
	"runtime"
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

// TestBulkLoadAllocs pins what a bulk load allocates: parsing one 8,192-row
// INSERT, ANALYZE's statistics build over the 200,000 rows, the whole durable
// load per loaded row, and the ANALYZE after it. The ceilings sit a little
// above the measured values.
//
// Measured (amd64): the parse took 90,160 allocations while the lexer built
// a token array for the whole text before parsing, every literal was its own
// Lit and each tuple grew 1 -> 2 -> 4; with one token of lookahead, a literal
// slab and tuples sized once it took 8,248, and with constant tuples carved
// as rows from a row slab it takes 103. The build took 2,116 while it also
// counted distinct numbers in a map, and takes 9 since it counts them from
// the sort it already does. The load took 4.2 allocations per row while the
// parser made a Lit per literal, bindValues a row per tuple, the heap a
// version per row and the index a node entry and a posting per key; with
// constant rows, one version slab per page and an appending B-tree it takes
// 0.088. Its bytes per row were 334.7 while each commit built a []wal.Op of
// its writes for the record encoder, and are 286.7 since the encoder reads
// the write set in place; they are logged, not pinned, because a -race build
// reads ~40 more. ANALYZE took 43 allocations and 27.5 MB while it gathered
// the table into one slice of rows; streaming batches into the builder it
// takes 21 and 4.8 MB, the column values the build sorts.
func TestBulkLoadAllocs(t *testing.T) {
	text := bulkInsertText(0, bulkChunk)
	parse := testing.AllocsPerRun(5, func() {
		if _, err := sqlparse.Parse(text); err != nil {
			t.Fatal(err)
		}
	})
	rows := bulkRowsOf(bulkRows)
	ts := stats.NewTableStats(3)
	rebuild := testing.AllocsPerRun(3, func() { ts.NewBuilder(len(rows)).Add(rows).Finish() })
	perRow, perRowB, analyze, analyzeB := loadAllocs(t)
	t.Logf("parse of an 8,192-row INSERT: %.0f allocs; build over %d rows: %.0f allocs", parse, bulkRows, rebuild)
	t.Logf("durable load: %.4f allocs and %.1f bytes per row; ANALYZE over %d rows: %.0f allocs, %.2f MB", perRow, perRowB, bulkRows, analyze, analyzeB/1e6)
	if parse > 120 {
		t.Errorf("parse of an 8,192-row INSERT: %.0f allocs, ceiling 120", parse)
	}
	if rebuild > 10 {
		t.Errorf("build over %d rows: %.0f allocs, ceiling 10", bulkRows, rebuild)
	}
	if perRow > 0.09 {
		t.Errorf("durable load: %.4f allocs per row, ceiling 0.09", perRow)
	}
	if analyze > 25 || analyzeB > 5.5e6 {
		t.Errorf("ANALYZE over %d rows: %.0f allocs and %.2f MB, ceiling 25 and 5.5 MB", bulkRows, analyze, analyzeB/1e6)
	}
}

// loadAllocs runs BenchmarkBulkLoad's load once and returns the allocations
// and bytes of its CREATE TABLE and INSERTs per loaded row, and the
// allocations and bytes of one ANALYZE after them. ANALYZE is measured as
// testing.AllocsPerRun measures: one run to warm up, then the mean of five on
// one P. A single run also counted what the runtime allocates after a GC
// cycle that happened to end near it — fmt's printer pool refilled, the
// unique package's cleanup — and read 21 to 28 allocations on unchanged code.
func loadAllocs(t *testing.T) (perRow, perRowBytes, analyze, analyzeBytes float64) {
	stmts := bulkStmts()
	cfg := neurdb.DefaultConfig()
	cfg.DataDir = t.TempDir()
	cfg.WalSync = "commit"
	db, err := neurdb.OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var start, loaded, done runtime.MemStats
	runtime.ReadMemStats(&start)
	for _, sql := range stmts[:len(stmts)-1] {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&loaded)
	const runs = 5
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before runtime.MemStats
	for i := 0; i <= runs; i++ {
		if i == 1 {
			runtime.ReadMemStats(&before)
		}
		if _, err := db.Exec(stmts[len(stmts)-1]); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&done)
	return float64(loaded.Mallocs-start.Mallocs) / bulkRows, float64(loaded.TotalAlloc-start.TotalAlloc) / bulkRows,
		float64((done.Mallocs - before.Mallocs) / runs), float64(done.TotalAlloc-before.TotalAlloc) / runs
}

// bulkStmts is kv_read's load: CREATE TABLE, the INSERTs, ANALYZE.
func bulkStmts() []string {
	stmts := []string{`CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val DOUBLE)`}
	for lo := 0; lo < bulkRows; lo += bulkChunk {
		stmts = append(stmts, bulkInsertText(lo, min(lo+bulkChunk, bulkRows)))
	}
	return append(stmts, `ANALYZE kv`)
}

// BenchmarkBulkLoad is kv_read's setup run embedded: a durable database,
// 200,000 rows in INSERTs of 8,192, then ANALYZE. The INSERT texts are built
// before the timer starts.
func BenchmarkBulkLoad(b *testing.B) {
	stmts := bulkStmts()
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

// BenchmarkBulkLoadRebuild is ANALYZE's statistics build over the 200,000
// rows alone.
func BenchmarkBulkLoadRebuild(b *testing.B) {
	rows := bulkRowsOf(bulkRows)
	ts := stats.NewTableStats(3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts.NewBuilder(len(rows)).Add(rows).Finish()
	}
}
