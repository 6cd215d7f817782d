package bench

import (
	"fmt"
	"strings"
	"time"

	"neurdb"
	"neurdb/internal/bench/workload"
	"neurdb/internal/executor"
	"neurdb/internal/rel"
	"neurdb/internal/txn"
)

// Table1Row is one AI-analytics query of the paper's Table 1, executed end
// to end through the SQL surface.
type Table1Row struct {
	Workload  string
	Statement string
	Latency   time.Duration
	Rows      int
	FinalLoss float64
}

// RunTable1 loads scaled-down Avazu/Diabetes tables and executes the two
// PREDICT statements from Table 1 through the full SQL path (parse → bind →
// AI operators → AI engine).
func RunTable1(sc Scale) ([]Table1Row, error) {
	db := neurdb.Open(neurdb.DefaultConfig())
	rows := sc.BatchSize * 8

	// Workload E: avazu table with c0..c21 + click_rate.
	{
		var cols []string
		for i := 0; i < workload.AvazuFields; i++ {
			cols = append(cols, fmt.Sprintf("c%d INT", i))
		}
		cols = append(cols, "click_rate DOUBLE")
		if _, err := db.Exec("CREATE TABLE avazu (" + strings.Join(cols, ", ") + ")"); err != nil {
			return nil, err
		}
		gen := workload.NewAvazu(41)
		if err := bulkInsert(db, "avazu", gen.Batch(rows)); err != nil {
			return nil, err
		}
	}
	// Workload H: diabetes table with f0..f42 + outcome.
	{
		var cols []string
		for i := 0; i < workload.DiabetesFields; i++ {
			cols = append(cols, fmt.Sprintf("f%d DOUBLE", i))
		}
		cols = append(cols, "outcome INT")
		if _, err := db.Exec("CREATE TABLE diabetes (" + strings.Join(cols, ", ") + ")"); err != nil {
			return nil, err
		}
		gen := workload.NewDiabetes(42)
		if err := bulkInsert(db, "diabetes", gen.Batch(rows)); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		return nil, err
	}

	stmts := []struct {
		workload, sql string
	}{
		{"E-Commerce (E)", "PREDICT VALUE OF click_rate FROM avazu TRAIN ON *"},
		{"Healthcare (H)", "PREDICT CLASS OF outcome FROM diabetes TRAIN ON *"},
	}
	var out []Table1Row
	for _, s := range stmts {
		start := time.Now()
		res, err := db.Exec(s.sql)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", s.sql, err)
		}
		out = append(out, Table1Row{
			Workload:  s.workload,
			Statement: s.sql,
			Latency:   time.Since(start),
			Rows:      len(res.Rows),
		})
	}
	return out, nil
}

// bulkInsert loads rows through the executor (faster than SQL text for bulk
// data, same code path as INSERT).
func bulkInsert(db *neurdb.DB, table string, rows []rel.Row) error {
	tbl, err := db.Catalog().Get(table)
	if err != nil {
		return err
	}
	mgr := db.TxnManager()
	tx := mgr.Begin(txn.Snapshot, false)
	ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: db.Catalog()}
	if _, err := executor.InsertBatch(ctx, tbl, rows); err != nil {
		mgr.Abort(tx)
		return err
	}
	return mgr.Commit(tx)
}

// RenderTable1 prints the executed statements.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	sb.WriteString("Table 1 — Queries for AI analytics evaluations (executed end to end)\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-15s %-55s  %8.0fms\n", r.Workload, r.Statement, float64(r.Latency.Milliseconds()))
	}
	return sb.String()
}
