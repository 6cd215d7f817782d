// Healthcare (Workload H): disease-progression classification through the
// SQL surface — the paper's Listing 2 — including inline VALUES prediction.
package main

import (
	"fmt"
	"log"
	"strings"

	"neurdb"
	"neurdb/internal/bench/workload"
)

func main() {
	db := neurdb.Open(neurdb.DefaultConfig())

	// Build the diabetes table (43 attributes + outcome).
	var cols []string
	for i := 0; i < workload.DiabetesFields; i++ {
		cols = append(cols, fmt.Sprintf("f%d DOUBLE", i))
	}
	cols = append(cols, "outcome INT")
	if _, err := db.Exec("CREATE TABLE diabetes (" + strings.Join(cols, ", ") + ")"); err != nil {
		log.Fatal(err)
	}

	gen := workload.NewDiabetes(3)
	var sb strings.Builder
	sb.WriteString("INSERT INTO diabetes VALUES ")
	for i, row := range gen.Batch(1500) {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteByte('(')
		for j, v := range row {
			if j > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(v.String())
		}
		sb.WriteByte(')')
	}
	// One multi-VALUES INSERT rides the page-batched insert path: one
	// transaction-manager call plus per-batch index/stats maintenance.
	if _, err := db.Exec(sb.String()); err != nil {
		log.Fatal(err)
	}
	if _, err := db.Exec("ANALYZE diabetes"); err != nil {
		log.Fatal(err)
	}

	// Streaming sanity check over the loaded cohort with a parameter bound
	// at execution time.
	rows, err := db.Query(`SELECT COUNT(*), AVG(f0) FROM diabetes WHERE outcome = ?`, 1)
	if err != nil {
		log.Fatal(err)
	}
	for rows.Next() {
		var n int64
		var avg float64
		if err := rows.Scan(&n, &avg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("positive outcomes: %d (avg f0 %.3f)\n", n, avg)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	// Classify two new patients inline (Listing 2 shape).
	patient1 := gen.Batch(1)[0][:workload.DiabetesFields]
	patient2 := gen.Batch(1)[0][:workload.DiabetesFields]
	values := func(row []string) string { return "(" + strings.Join(row, ", ") + ")" }
	var v1, v2 []string
	for _, v := range patient1 {
		v1 = append(v1, v.String())
	}
	for _, v := range patient2 {
		v2 = append(v2, v.String())
	}
	sql := fmt.Sprintf(`PREDICT CLASS OF outcome FROM diabetes TRAIN ON * VALUES %s, %s`,
		values(v1), values(v2))
	res, err := db.Exec(sql)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Message)
	for i, p := range res.Predictions {
		fmt.Printf("patient %d: class %v (probability %.3f)\n", i+1, res.Rows[i][0].AsInt(), p)
	}
}
