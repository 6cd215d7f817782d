// Learned query optimizer: builds the STATS-like schema, drifts the data,
// and shows the stale-statistics cost planner picking a different (worse)
// plan than live-condition planning — the effect the learned optimizer
// exploits (paper Fig. 8).
package main

import (
	"fmt"
	"log"
	"strings"

	"neurdb"
	"neurdb/internal/bench/workload"
	"neurdb/internal/executor"
	"neurdb/internal/rel"
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
		tbl, _ := db.Catalog().Get(def.Name)
		mgr := db.TxnManager()
		tx := mgr.Begin(txn.Snapshot, false)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: db.Catalog()}
		if _, err := executor.InsertBatch(ctx, tbl, sw.Rows(def.Name)); err != nil {
			log.Fatal(err)
		}
		if err := mgr.Commit(tx); err != nil {
			log.Fatal(err)
		}
	}
	if _, err := db.Exec("ANALYZE"); err != nil {
		log.Fatal(err)
	}

	query := sw.Queries()[0]
	fmt.Println("query:", query)

	explain := func(label string) {
		res, err := db.Exec("EXPLAIN " + query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", label)
		for _, row := range res.Rows {
			fmt.Println(" ", row[0])
		}
	}
	explain("plan before drift (fresh statistics)")

	// Severe drift: the stale planner keeps the old statistics snapshot.
	mgr := db.TxnManager()
	for _, def := range sw.Tables() {
		rows := sw.DriftInserts(def.Name, workload.DriftSevere)
		if len(rows) == 0 {
			continue
		}
		tbl, _ := db.Catalog().Get(def.Name)
		tx := mgr.Begin(txn.Snapshot, false)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: db.Catalog()}
		if _, err := executor.InsertBatch(ctx, tbl, rows); err != nil {
			log.Fatal(err)
		}
		if err := mgr.Commit(tx); err != nil {
			log.Fatal(err)
		}
	}

	if _, err := db.Exec("SET optimizer = 'stale'"); err != nil {
		log.Fatal(err)
	}
	explain("PostgreSQL-style plan after severe drift (STALE statistics)")

	if _, err := db.Exec("SET optimizer = 'cost'"); err != nil {
		log.Fatal(err)
	}
	explain("plan after severe drift (LIVE statistics — what NeurDB's conditions see)")

	fmt.Println("\nrun the full four-system comparison with: go run ./cmd/neurdb-bench -exp fig8")
	_ = strings.TrimSpace("")
}
