// Quickstart: open a database, run DDL/DML/queries through the prepared,
// parameterized, streaming client API, and execute the paper's PREDICT
// extension end to end.
package main

import (
	"fmt"
	"log"

	"neurdb"
)

func main() {
	db := neurdb.Open(neurdb.DefaultConfig())

	must := func(sql string, args ...any) *neurdb.Result {
		res, err := db.Exec(sql, args...)
		if err != nil {
			log.Fatalf("%s: %v", sql, err)
		}
		return res
	}

	// Plain SQL.
	must(`CREATE TABLE review (id INT PRIMARY KEY, brand_name TEXT, stars INT, helpful INT, score DOUBLE)`)

	// A prepared INSERT parses, binds, and plans once; every Exec after that
	// only binds arguments. Re-executions ride the page-batched insert path.
	ins, err := db.Prepare(`INSERT INTO review VALUES (?, ?, ?, ?, ?)`)
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		stars := i % 5
		helpful := (i * 7) % 20
		score := float64(stars)*0.8 + float64(helpful)*0.05
		if _, err := ins.Exec(i, fmt.Sprintf("brand%d", i%10), stars, helpful, score); err != nil {
			log.Fatal(err)
		}
	}
	// A few rows with missing scores for the brand we care about; NULL
	// passes through as a nil argument.
	for i := 500; i < 505; i++ {
		if _, err := ins.Exec(i, "Special Goods", i%5, (i*3)%20, nil); err != nil {
			log.Fatal(err)
		}
	}
	must(`ANALYZE review`)

	// Streaming query: rows arrive one executor batch at a time; Scan
	// converts column values into Go variables.
	rows, err := db.Query(`SELECT brand_name, COUNT(*), AVG(score) FROM review GROUP BY brand_name LIMIT 3`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("group-by sample:")
	for rows.Next() {
		var brand string
		var count int64
		var avg float64
		if err := rows.Scan(&brand, &count, &avg); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s: %d reviews, avg score %.2f\n", brand, count, avg)
	}
	if err := rows.Err(); err != nil {
		log.Fatal(err)
	}
	rows.Close()

	// A prepared point SELECT hits the shared plan cache on every execution.
	point, err := db.Prepare(`SELECT score FROM review WHERE id = ?`)
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range []int{7, 42, 99} {
		res, err := point.Exec(id)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("score(id=%d) = %s\n", id, res.Rows[0][0])
	}
	hits, misses := db.PlanCacheStats()
	fmt.Printf("plan cache: %d hits, %d misses\n", hits, misses)

	// EXPLAIN shows the physical plan (parameter probes keep index scans).
	res := must(`EXPLAIN SELECT score FROM review WHERE id = 42`)
	fmt.Println("plan:")
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0])
	}

	// The paper's Listing 1: in-database AI analytics with PREDICT.
	res = must(`PREDICT VALUE OF score
		FROM review
		WHERE brand_name = 'Special Goods'
		TRAIN ON *
		WITH brand_name <> 'Special Goods'`)
	fmt.Println(res.Message)
	for i, p := range res.Predictions {
		fmt.Printf("  prediction %d: %.3f\n", i, p)
	}

	// Running PREDICT again reuses the stored model via fine-tuning
	// (incremental update through the layered model store).
	res = must(`PREDICT VALUE OF score
		FROM review
		WHERE brand_name = 'Special Goods'
		TRAIN ON *
		WITH brand_name <> 'Special Goods'`)
	fmt.Println(res.Message)
}
