package bench

import (
	"testing"
	"time"

	"neurdb"
)

// tinyScale shrinks everything for CI smoke tests.
func tinyScale() Scale {
	return Scale{
		BatchSize:        128,
		Fig6aBatches:     8,
		Fig6bBatchCounts: []int{2, 4},
		Fig6cSwitchEvery: 512,
		Window:           8,

		YCSBRecords:    20_000,
		CCDuration:     80 * time.Millisecond,
		Fig7bPhase:     300 * time.Millisecond,
		Fig7bIntervals: 3,

		StatsScale:    1,
		QORepeats:     1,
		QOTrainPasses: 20,

		DurabilityDuration: 60 * time.Millisecond,
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	if rows[0].Latency <= 0 || rows[1].Latency <= 0 {
		t.Fatal("latency not measured")
	}
	if out := RenderTable1(rows); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunFig6a(t *testing.T) {
	rows, err := RunFig6a(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Workload != "E" || rows[1].Workload != "H" {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if r.NeurDBTput <= 0 || r.BaselineTput <= 0 {
			t.Fatalf("throughput missing: %+v", r)
		}
	}
	if out := RenderFig6a(rows); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunFig6b(t *testing.T) {
	points, err := RunFig6b(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points: %d", len(points))
	}
	// Latency grows with batch count for both systems.
	if points[1].NeurDB <= points[0].NeurDB/4 {
		t.Fatalf("NeurDB latency not scaling: %+v", points)
	}
	if out := RenderFig6b(points); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunFig6c(t *testing.T) {
	res, err := RunFig6c(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LossNoInc) == 0 || len(res.LossInc) == 0 {
		t.Fatal("loss series missing")
	}
	if res.StorageIncBytes >= res.StorageFullBytes {
		t.Fatalf("incremental storage (%d) should undercut full saves (%d)",
			res.StorageIncBytes, res.StorageFullBytes)
	}
	if out := RenderFig6c(res); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunFig7a(t *testing.T) {
	rows, err := RunFig7a(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Threads != 4 || rows[1].Threads != 16 {
		t.Fatalf("rows: %+v", rows)
	}
	for _, r := range rows {
		if r.PG <= 0 || r.NeurDB <= 0 {
			t.Fatalf("throughput missing: %+v", r)
		}
	}
	if out := RenderFig7a(rows); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunFig7b(t *testing.T) {
	res, err := RunFig7b(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	want := 3 * tinyScale().Fig7bIntervals
	if len(res.NeurDBCC) != want || len(res.Polyjuice) != want {
		t.Fatalf("series length: %d vs %d", len(res.NeurDBCC), want)
	}
	if res.PostDriftRatio <= 0 {
		t.Fatal("ratio missing")
	}
	if out := RenderFig7b(res); out == "" {
		t.Fatal("empty render")
	}
}

func TestRunDurability(t *testing.T) {
	res, err := RunDurability(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(durabilityWriters) {
		t.Fatalf("points: %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.GroupTps <= 0 || p.GroupSize < 1 {
			t.Fatalf("throughput or group size missing: %+v", p)
		}
	}
	if res.FsyncUs <= 0 || res.WalOffTps <= 0 || res.IntervalTps <= 0 {
		t.Fatalf("reference points missing: %+v", res)
	}
	if out := RenderDurability(res); out == "" {
		t.Fatal("empty render")
	}
	t.Logf("\n%s", RenderDurability(res))
}

func TestRunFig8(t *testing.T) {
	res, err := RunFig8(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Levels) != 3 || res.Queries != 8 {
		t.Fatalf("shape: %+v", res.Levels)
	}
	for _, level := range res.Levels {
		for _, sys := range Fig8Optimizers {
			lat := res.LatencyMS[level][sys]
			if len(lat) != 8 {
				t.Fatalf("%s/%s: %d latencies", level, sys, len(lat))
			}
			for qi, ms := range lat {
				if ms <= 0 {
					t.Fatalf("%s/%s Q%d: non-positive latency", level, sys, qi+1)
				}
			}
		}
	}
	if out := RenderFig8(res); out == "" {
		t.Fatal("empty render")
	}
	t.Logf("\n%s", RenderFig8(res))
}

// TestStaleStatsViewServesSnapshots: Fig. 8's "PostgreSQL" plans on the
// statistics of its one ANALYZE. The view serves the row count as of that
// ANALYZE, and later inserts, which move the live statistics, do not leak
// into it.
func TestStaleStatsViewServesSnapshots(t *testing.T) {
	db := neurdb.Open(neurdb.DefaultConfig())
	for _, sql := range []string{`CREATE TABLE t (v INT)`, `INSERT INTO t VALUES (1), (2), (3)`, `ANALYZE t`} {
		if _, err := db.Exec(sql); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := db.Catalog().Get("t")
	if err != nil {
		t.Fatal(err)
	}
	sv := snapshotStats(db.Catalog())
	if got := sv(tbl).Rows(); got != 3 {
		t.Fatalf("snapshot rows %d, want 3", got)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (4), (5)`); err != nil {
		t.Fatal(err)
	}
	if got := sv(tbl).Rows(); got != 3 {
		t.Fatalf("stale view leaked fresh stats: %d rows, want 3", got)
	}
	if got := tbl.Stats.Rows(); got != 5 {
		t.Fatalf("live stats %d rows, want 5", got)
	}
}
