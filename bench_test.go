// Benchmark harness: one testing.B per table/figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a reduced
// scale and reports the headline metrics via b.ReportMetric, so
// `go test -bench=.` regenerates every result. `cmd/neurdb-bench` prints
// the full paper-style tables.
package neurdb_test

import (
	"testing"
	"time"

	"neurdb/internal/bench"
)

// benchScale keeps -bench runs quick while preserving shapes.
func benchScale() bench.Scale {
	return bench.Scale{
		BatchSize:        256,
		Fig6aBatches:     16,
		Fig6bBatchCounts: []int{4, 8, 16},
		Fig6cSwitchEvery: 1024,
		Window:           16,

		YCSBRecords:    50_000,
		CCDuration:     250 * time.Millisecond,
		Fig7bPhase:     600 * time.Millisecond,
		Fig7bIntervals: 4,

		PreparedRows:  10_000,
		PreparedIters: 1_000,

		ParallelRows:  60_000,
		ParallelIters: 3,

		StatsScale:    1,
		QORepeats:     2,
		QOTrainPasses: 40,

		DurabilityDuration: 100 * time.Millisecond,
	}
}

// BenchmarkPreparedVsReparse measures prepared re-execution of a point
// SELECT (plan-cache hit path) against parse-per-call Exec.
func BenchmarkPreparedVsReparse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunPrepared(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Speedup, "speedup")
		b.ReportMetric(res.PreparedNsPerOp, "prepared-ns/op")
		b.ReportMetric(res.ReparseNsPerOp, "reparse-ns/op")
	}
}

// BenchmarkParallelScaling measures morsel-driven intra-query scaling
// (1/2/4 workers) through the SQL surface; the 4-worker speedups are the
// headline metrics the bench-multicore CI job gates at paper scale.
func BenchmarkParallelScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunParallel(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ScanAggSpeedup4, "scanagg-speedup4")
		b.ReportMetric(res.JoinSpeedup4, "join-speedup4")
	}
}

// BenchmarkDurability measures the WAL commit path: group commit at 1/8/32
// writers, plus the wal-off and interval-sync reference points. The
// 32-writer commits-per-fsync figure is the metric the bench-gate CI job
// gates.
func BenchmarkDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunDurability(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.GroupSize32, "group-size32")
		b.ReportMetric(res.IntervalOverhead, "interval-overhead")
		b.ReportMetric(res.FsyncUs, "fsync-us")
	}
}

// BenchmarkTable1Queries executes the two AI-analytics statements of
// Table 1 end to end through the SQL surface.
func BenchmarkTable1Queries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunTable1(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Latency.Seconds()*1000, "E-ms")
		b.ReportMetric(rows[1].Latency.Seconds()*1000, "H-ms")
	}
}

// BenchmarkFig6aEndToEnd reproduces Fig. 6(a): end-to-end latency and
// training throughput, NeurDB vs PostgreSQL+P, Workloads E and H.
func BenchmarkFig6aEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig6a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].TputSpeedup, "E-speedup")
		b.ReportMetric(rows[1].TputSpeedup, "H-speedup")
		b.ReportMetric(rows[0].LatencyReduction*100, "E-lat-red-%")
		b.ReportMetric(rows[1].LatencyReduction*100, "H-lat-red-%")
	}
}

// BenchmarkFig6bDataVolume reproduces Fig. 6(b): latency vs batch count.
func BenchmarkFig6bDataVolume(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points, err := bench.RunFig6b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		last := points[len(points)-1]
		b.ReportMetric(float64(last.Baseline.Milliseconds()), "pg+p-ms")
		b.ReportMetric(float64(last.NeurDB.Milliseconds()), "neurdb-ms")
	}
}

// BenchmarkFig6cDrift reproduces Fig. 6(c): loss under cluster drift with
// and without incremental model updates.
func BenchmarkFig6cDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6c(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.MeanPostDriftNoInc, "loss-noinc")
		b.ReportMetric(res.MeanPostDriftInc, "loss-inc")
		b.ReportMetric(float64(res.StorageIncBytes)/float64(res.StorageFullBytes), "storage-ratio")
	}
}

// BenchmarkFig7aLearnedCC reproduces Fig. 7(a): learned CC vs SSI on YCSB.
func BenchmarkFig7aLearnedCC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunFig7a(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Speedup, "4thr-speedup")
		b.ReportMetric(rows[1].Speedup, "16thr-speedup")
	}
}

// BenchmarkFig7bDrift reproduces Fig. 7(b): adaptation under TPC-C drift,
// NeurDB(CC) vs Polyjuice.
func BenchmarkFig7bDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7b(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PostDriftRatio, "postdrift-ratio")
	}
}

// BenchmarkFig8QueryOptimizer reproduces Fig. 8: the four optimizers on the
// STATS SPJ queries under drift.
func BenchmarkFig8QueryOptimizer(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig8(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		severe := res.Levels[2]
		b.ReportMetric(res.AvgMS[severe]["PostgreSQL"], "pg-avg-ms")
		b.ReportMetric(res.AvgMS[severe]["Bao"], "bao-avg-ms")
		b.ReportMetric(res.AvgMS[severe]["Lero"], "lero-avg-ms")
		b.ReportMetric(res.AvgMS[severe]["NeurDB"], "neurdb-avg-ms")
		b.ReportMetric(res.NeurDBReduction*100, "neurdb-red-%")
	}
}
