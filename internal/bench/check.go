package bench

import (
	"encoding/json"
	"fmt"
	"os"
)

// Expectations pins floors/ceilings for the stable scalars the paper
// harness produces. CI runs `neurdb-bench -json -exp ... -check FILE`
// against the committed seed expectations (ci/bench_expectations.json) and
// fails the build when a measured result regresses past them — the
// thresholds carry slack over the seed measurements so run-to-run noise
// passes but a real regression (a broken streaming path, a storage-saving
// regression, a collapsed post-drift recovery) does not. Experiments absent
// from either side are skipped, so the gate only constrains what a given CI
// invocation actually ran.
type Expectations struct {
	Fig6a    *Fig6aExpectations    `json:"fig6a,omitempty"`
	Fig6c    *Fig6cExpectations    `json:"fig6c,omitempty"`
	Fig7a    *Fig7aExpectations    `json:"fig7a,omitempty"`
	Fig7b    *Fig7bExpectations    `json:"fig7b,omitempty"`
	Table1   *Table1Expectations   `json:"table1,omitempty"`
	Prepared *PreparedExpectations `json:"prepared,omitempty"`
	Parallel *ParallelExpectations `json:"parallel,omitempty"`
	// ParallelDML gates write-path scaling under the "parallel-dml"
	// experiment key.
	ParallelDML *ParallelDMLExpectations `json:"parallel_dml,omitempty"`
	Wire        *WireExpectations        `json:"wire,omitempty"`
	// Durability gates the WAL commit path under the "durability"
	// experiment key.
	Durability *DurabilityExpectations `json:"durability,omitempty"`
}

// Fig6aExpectations gates the end-to-end AI-analytics comparison.
type Fig6aExpectations struct {
	// MinTputSpeedup is the per-workload floor on NeurDB-vs-baseline
	// training throughput (paper reports 1.96x/2.92x at full scale).
	MinTputSpeedup map[string]float64 `json:"min_tput_speedup"`
}

// Fig6cExpectations gates the drift-adaptation experiment.
type Fig6cExpectations struct {
	// MaxStorageRatio bounds incremental-save bytes over full-save bytes.
	MaxStorageRatio float64 `json:"max_storage_ratio"`
	// MaxPostDriftLossRatio bounds mean post-drift loss with incremental
	// updates over the full-retrain baseline (≤1 means no worse).
	MaxPostDriftLossRatio float64 `json:"max_postdrift_loss_ratio"`
}

// Fig7aExpectations gates the learned-CC throughput comparison.
type Fig7aExpectations struct {
	// MinSpeedup is the floor on learned-CC/SSI throughput at any
	// measured thread count.
	MinSpeedup float64 `json:"min_speedup"`
}

// Fig7bExpectations gates the CC drift experiment.
type Fig7bExpectations struct {
	// MinPostDriftRatio is the floor on NeurDB(CC)/Polyjuice post-drift
	// throughput.
	MinPostDriftRatio float64 `json:"min_postdrift_ratio"`
}

// Table1Expectations gates the end-to-end PREDICT statements.
type Table1Expectations struct {
	// MaxFinalLoss bounds each statement's final training loss.
	MaxFinalLoss float64 `json:"max_final_loss"`
	// MinRows is the floor on returned prediction rows per statement.
	MinRows int `json:"min_rows"`
}

// PreparedExpectations gates the prepared-statement throughput comparison.
type PreparedExpectations struct {
	// MinSpeedup is the floor on reparse/prepared ns-per-op (prepared
	// re-execution must stay measurably faster than parse-per-call Exec).
	MinSpeedup float64 `json:"min_speedup"`
	// MinCacheHitRate is the floor on the plan-cache hit rate during the
	// prepared run (a collapse means invalidation churn or a broken cache).
	MinCacheHitRate float64 `json:"min_cache_hit_rate"`
}

// ParallelExpectations gates morsel-driven intra-query scaling. The floors
// only apply when the measured host actually had >= 4 procs (GOMAXPROCS):
// on a 1-core runner 4 workers time-slice one core and no speedup exists to
// gate.
type ParallelExpectations struct {
	// MinScanAggSpeedup4 is the floor on t(1 worker)/t(4 workers) for the
	// full-table scan+filter+aggregate pipeline.
	MinScanAggSpeedup4 float64 `json:"min_scanagg_speedup4"`
	// MinJoinSpeedup4 is the floor for the hash-join pipeline (0 = not
	// gated).
	MinJoinSpeedup4 float64 `json:"min_join_speedup4"`
}

// ParallelDMLExpectations gates morsel-parallel DML scaling. As with the
// read-side parallel gate, the floors only apply when the measured host had
// >= 4 procs: on fewer procs 4 workers time-slice and there is no speedup
// to gate.
type ParallelDMLExpectations struct {
	// MinUpdateSpeedup4 is the floor on t(1 worker)/t(4 workers) for the
	// 75%-of-table UPDATE statement.
	MinUpdateSpeedup4 float64 `json:"min_update_speedup4"`
	// MinDeleteSpeedup4 is the floor for the 25%-of-table DELETE statement
	// (0 = not gated).
	MinDeleteSpeedup4 float64 `json:"min_delete_speedup4"`
}

// WireExpectations gates the remote-protocol throughput comparison.
type WireExpectations struct {
	// MinSpeedup is the floor on simple/prepared ns-per-op over the wire:
	// both paths pay the same loopback round trip, so the floor is
	// conservative, but Parse/Bind/Execute must stay measurably ahead of
	// per-call reparse or wire plan reuse has broken.
	MinSpeedup float64 `json:"min_speedup"`
	// MinCacheHitRate is the floor on the server plan-cache hit rate while
	// the prepared path runs.
	MinCacheHitRate float64 `json:"min_cache_hit_rate"`
}

// DurabilityExpectations gates the WAL commit path. The group-commit floor
// only applies when raw fsync on the bench host costs at least
// MinGateFsyncUs: on tmpfs or write-cached disks an fsync is nearly free,
// the leader finishes before followers queue up, and there is no group to
// gate.
type DurabilityExpectations struct {
	// MinGroupSize32 is the floor on the mean number of commits one fsync
	// makes durable at the top writer count, as the log counts it
	// (DB.WALStats: Δcommits/Δfsyncs over the storm): batching must put
	// concurrent committers behind a shared fsync.
	MinGroupSize32 float64 `json:"min_group_size32"`
	// MaxIntervalOverhead is the ceiling on wal-off over interval-sync
	// throughput: WAL append plus a background fsync must stay within this
	// factor of running with no log at all (0 = not gated).
	MaxIntervalOverhead float64 `json:"max_interval_overhead"`
	// MinGateFsyncUs disables the group-commit floor on hosts where raw
	// fsync is cheaper than this many microseconds.
	MinGateFsyncUs float64 `json:"min_gate_fsync_us"`
}

// LoadExpectations reads an expectations file.
func LoadExpectations(path string) (*Expectations, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var e Expectations
	if err := json.Unmarshal(data, &e); err != nil {
		return nil, fmt.Errorf("bench: parse expectations %s: %w", path, err)
	}
	return &e, nil
}

// Check validates collected experiment results (as the neurdb-bench runner
// accumulates them, keyed by experiment name) against the expectations and
// returns one human-readable violation per failed threshold.
func (e *Expectations) Check(results map[string]any) []string {
	var bad []string
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf(format, args...))
	}

	if e.Fig6a != nil {
		if rows, ok := results["fig6a"].([]Fig6aRow); ok {
			for _, r := range rows {
				floor, gated := e.Fig6a.MinTputSpeedup[r.Workload]
				if gated && r.TputSpeedup < floor {
					fail("fig6a %s: tput speedup %.3f below floor %.3f", r.Workload, r.TputSpeedup, floor)
				}
			}
		}
	}
	if e.Fig6c != nil {
		if res, ok := results["fig6c"].(*Fig6cResult); ok {
			if res.StorageFullBytes > 0 {
				ratio := float64(res.StorageIncBytes) / float64(res.StorageFullBytes)
				if ratio > e.Fig6c.MaxStorageRatio {
					fail("fig6c: storage ratio %.3f above ceiling %.3f", ratio, e.Fig6c.MaxStorageRatio)
				}
			}
			if res.MeanPostDriftNoInc > 0 && e.Fig6c.MaxPostDriftLossRatio > 0 {
				ratio := res.MeanPostDriftInc / res.MeanPostDriftNoInc
				if ratio > e.Fig6c.MaxPostDriftLossRatio {
					fail("fig6c: post-drift loss ratio %.3f above ceiling %.3f", ratio, e.Fig6c.MaxPostDriftLossRatio)
				}
			}
		}
	}
	if e.Fig7a != nil {
		if rows, ok := results["fig7a"].([]Fig7aRow); ok {
			for _, r := range rows {
				if r.Speedup < e.Fig7a.MinSpeedup {
					fail("fig7a %d threads: learned-CC speedup %.3f below floor %.3f", r.Threads, r.Speedup, e.Fig7a.MinSpeedup)
				}
			}
		}
	}
	if e.Fig7b != nil {
		if res, ok := results["fig7b"].(*Fig7bResult); ok {
			if res.PostDriftRatio < e.Fig7b.MinPostDriftRatio {
				fail("fig7b: post-drift ratio %.3f below floor %.3f", res.PostDriftRatio, e.Fig7b.MinPostDriftRatio)
			}
		}
	}
	if e.Prepared != nil {
		if res, ok := results["prepared"].(*PreparedResult); ok {
			if res.Speedup < e.Prepared.MinSpeedup {
				fail("prepared: speedup %.3f below floor %.3f", res.Speedup, e.Prepared.MinSpeedup)
			}
			if e.Prepared.MinCacheHitRate > 0 && res.CacheHitRate < e.Prepared.MinCacheHitRate {
				fail("prepared: plan-cache hit rate %.3f below floor %.3f", res.CacheHitRate, e.Prepared.MinCacheHitRate)
			}
		}
	}
	if e.Wire != nil {
		if res, ok := results["wire"].(*WireResult); ok {
			if res.Speedup < e.Wire.MinSpeedup {
				fail("wire: prepared-vs-simple speedup %.3f below floor %.3f", res.Speedup, e.Wire.MinSpeedup)
			}
			if e.Wire.MinCacheHitRate > 0 && res.CacheHitRate < e.Wire.MinCacheHitRate {
				fail("wire: plan-cache hit rate %.3f below floor %.3f", res.CacheHitRate, e.Wire.MinCacheHitRate)
			}
		}
	}
	if e.Parallel != nil {
		// On hosts with < 4 procs, 4 workers time-slice and no speedup
		// exists to gate: record, don't fail.
		if res, ok := results["parallel"].(*ParallelResult); ok && res.MaxProcs >= 4 {
			if e.Parallel.MinScanAggSpeedup4 > 0 && res.ScanAggSpeedup4 < e.Parallel.MinScanAggSpeedup4 {
				fail("parallel: scan+agg speedup at 4 workers %.3f below floor %.3f",
					res.ScanAggSpeedup4, e.Parallel.MinScanAggSpeedup4)
			}
			if e.Parallel.MinJoinSpeedup4 > 0 && res.JoinSpeedup4 < e.Parallel.MinJoinSpeedup4 {
				fail("parallel: join speedup at 4 workers %.3f below floor %.3f",
					res.JoinSpeedup4, e.Parallel.MinJoinSpeedup4)
			}
		}
	}
	if e.ParallelDML != nil {
		// Same proc guard as the read-side parallel gate.
		if res, ok := results["parallel-dml"].(*ParallelDMLResult); ok && res.MaxProcs >= 4 {
			if e.ParallelDML.MinUpdateSpeedup4 > 0 && res.UpdateSpeedup4 < e.ParallelDML.MinUpdateSpeedup4 {
				fail("parallel-dml: update speedup at 4 workers %.3f below floor %.3f",
					res.UpdateSpeedup4, e.ParallelDML.MinUpdateSpeedup4)
			}
			if e.ParallelDML.MinDeleteSpeedup4 > 0 && res.DeleteSpeedup4 < e.ParallelDML.MinDeleteSpeedup4 {
				fail("parallel-dml: delete speedup at 4 workers %.3f below floor %.3f",
					res.DeleteSpeedup4, e.ParallelDML.MinDeleteSpeedup4)
			}
		}
	}
	if e.Durability != nil {
		if res, ok := results["durability"].(*DurabilityResult); ok {
			// An fsync that costs nothing gathers no followers; the group
			// floor only bites where the disk makes durability expensive.
			if e.Durability.MinGroupSize32 > 0 && res.FsyncUs >= e.Durability.MinGateFsyncUs &&
				res.GroupSize32 < e.Durability.MinGroupSize32 {
				fail("durability: %.2f commits per fsync at %d writers, below floor %.2f (fsync %.0f us)",
					res.GroupSize32, durabilityWriters[len(durabilityWriters)-1],
					e.Durability.MinGroupSize32, res.FsyncUs)
			}
			if e.Durability.MaxIntervalOverhead > 0 && res.IntervalOverhead > e.Durability.MaxIntervalOverhead {
				fail("durability: interval-sync overhead %.3fx above ceiling %.3fx",
					res.IntervalOverhead, e.Durability.MaxIntervalOverhead)
			}
		}
	}
	if e.Table1 != nil {
		if rows, ok := results["table1"].([]Table1Row); ok {
			for _, r := range rows {
				if e.Table1.MaxFinalLoss > 0 && r.FinalLoss > e.Table1.MaxFinalLoss {
					fail("table1 %s: final loss %.4f above ceiling %.4f", r.Workload, r.FinalLoss, e.Table1.MaxFinalLoss)
				}
				if r.Rows < e.Table1.MinRows {
					fail("table1 %s: %d rows below floor %d", r.Workload, r.Rows, e.Table1.MinRows)
				}
			}
		}
	}
	return bad
}
