// Learned query optimizer: builds the STATS-like schema, drifts the data,
// and shows the stale-statistics cost planner picking a different (worse)
// plan than live-statistics planning — the effect the learned optimizer
// exploits (paper Fig. 8).
package main

import (
	"fmt"
	"log"

	"neurdb"
	"neurdb/internal/bench/workload"
	"neurdb/internal/catalog"
	"neurdb/internal/executor"
	"neurdb/internal/optimizer"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/stats"
	"neurdb/internal/txn"
)

func main() {
	db := neurdb.Open(neurdb.DefaultConfig())
	sw := workload.NewStats(1, 42)

	// Create schema + data + indexes.
	for _, def := range sw.Tables() {
		if _, err := db.Catalog().Create(def.Name, rel.NewSchema(def.Cols...)); err != nil {
			log.Fatal(err)
		}
		for _, col := range def.IndexCols {
			if _, err := db.Exec(fmt.Sprintf("CREATE INDEX %s_%s ON %s (%s)", def.Name, col, def.Name, col)); err != nil {
				log.Fatal(err)
			}
		}
		insert(db, def.Name, sw.Rows(def.Name))
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		log.Fatal(err)
	}
	// The PostgreSQL-style planner keeps planning on the statistics of this
	// ANALYZE while the data drifts.
	snaps := make(map[int]*stats.TableStats)
	for _, t := range db.Catalog().All() {
		snaps[t.ID] = t.Stats.Snapshot()
	}
	stale := &optimizer.Optimizer{Stats: func(t *catalog.Table) *stats.TableStats { return snaps[t.ID] }}

	query := sw.Queries()[0]
	fmt.Println("query:", query)
	parsed, err := sqlparse.Parse(query)
	if err != nil {
		log.Fatal(err)
	}
	sel := parsed.(*sqlparse.Select)

	show := func(label string, p plan.Node, err error) {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n%s", label, plan.Explain(p))
	}
	p, err := db.PlanSelect(sel)
	show("plan before drift (fresh statistics)", p, err)

	// Severe drift. The inserts keep the live statistics current.
	for _, def := range sw.Tables() {
		if rows := sw.DriftInserts(def.Name, workload.DriftSevere); len(rows) > 0 {
			insert(db, def.Name, rows)
		}
	}

	p, err = stale.PlanStmt(sel, db.Catalog())
	show("PostgreSQL-style plan after severe drift (STALE statistics)", p, err)
	p, err = db.PlanSelect(sel)
	show("plan after severe drift (LIVE statistics — what NeurDB's conditions see)", p, err)

	fmt.Println("\nrun the full four-system comparison with: go run ./cmd/neurdb-bench -exp fig8")
}

// insert loads rows into the named table in one committed transaction.
func insert(db *neurdb.DB, table string, rows []rel.Row) {
	tbl, err := db.Catalog().Get(table)
	if err != nil {
		log.Fatal(err)
	}
	mgr := db.TxnManager()
	tx := mgr.Begin(txn.Snapshot, false)
	ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: db.Catalog()}
	if _, err := executor.InsertBatch(ctx, tbl, rows); err != nil {
		log.Fatal(err)
	}
	if err := mgr.Commit(tx); err != nil {
		log.Fatal(err)
	}
}
