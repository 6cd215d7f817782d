// Package bench implements the paper's evaluation harness: one runner per
// table/figure (Table 1, Figures 6a-c, 7a-b, 8), each printing
// paper-reported versus measured results. Every experiment takes a Scale so
// `go test` runs in seconds while `neurdb-bench -full` approaches
// paper-scale shapes.
package bench

import "time"

// Scale parameterizes experiment sizes.
type Scale struct {
	// --- Fig 6 (AI analytics) ---
	// BatchSize is the records per training batch (paper: 4096).
	BatchSize int
	// Fig6aBatches is the training-batch count for the end-to-end run.
	Fig6aBatches int
	// Fig6bBatchCounts is the x-axis of the data-volume sweep (paper:
	// 20..640).
	Fig6bBatchCounts []int
	// Fig6cSwitchEvery is the samples-per-cluster before drift (paper:
	// 81,920).
	Fig6cSwitchEvery int

	// --- Fig 7 (learned CC) ---
	// YCSBRecords is the table size (paper: 1M).
	YCSBRecords int
	// CCDuration is the measurement time per throughput point.
	CCDuration time.Duration
	// Fig7bPhase is the wall-clock length of each drift phase (paper: 600s).
	Fig7bPhase time.Duration
	// Fig7bIntervals is the number of throughput samples per phase.
	Fig7bIntervals int

	// --- Prepared-statement throughput (client API) ---
	// PreparedRows is the keyed-table size for the point-SELECT comparison.
	PreparedRows int
	// PreparedIters is the per-path execution count.
	PreparedIters int

	// --- Wire-protocol throughput (remote client API) ---
	// WireIters is the per-path execution count for the loopback
	// prepared-vs-simple-vs-line comparison (table size reuses
	// PreparedRows).
	WireIters int

	// --- Morsel-driven parallel scaling ---
	// ParallelRows is the big-table size for the worker-scaling runs (must
	// span many morsels: 16-page morsels hold 2048 rows each).
	ParallelRows int
	// ParallelIters is the per-worker-count execution count.
	ParallelIters int
	// ParallelDMLIters is the per-worker-count mixed UPDATE/DELETE/INSERT
	// cycle count for the write-path scaling run (table size reuses
	// ParallelRows).
	ParallelDMLIters int

	// --- WAL commit path (durability) ---
	// DurabilityDuration is the measurement window per (mode, writer-count)
	// storm point in the group-commit experiment.
	DurabilityDuration time.Duration

	// --- Fig 8 (learned QO) ---
	// StatsScale multiplies the STATS table sizes (1 ≈ 36k rows total).
	StatsScale int
	// QORepeats is the per-plan execution count (median taken).
	QORepeats int
	// QOTrainPasses is the training-epoch count over collected examples.
	QOTrainPasses int
}

// DefaultScale runs every experiment in seconds (CI-friendly).
func DefaultScale() Scale {
	return Scale{
		BatchSize:        256,
		Fig6aBatches:     30,
		Fig6bBatchCounts: []int{5, 10, 20, 40, 80},
		Fig6cSwitchEvery: 2048,

		YCSBRecords:    100_000,
		CCDuration:     400 * time.Millisecond,
		Fig7bPhase:     1500 * time.Millisecond,
		Fig7bIntervals: 6,

		PreparedRows:  20_000,
		PreparedIters: 3_000,

		WireIters: 2_000,

		ParallelRows:     150_000,
		ParallelIters:    8,
		ParallelDMLIters: 5,

		DurabilityDuration: 250 * time.Millisecond,

		StatsScale:    1,
		QORepeats:     2,
		QOTrainPasses: 60,
	}
}

// FullScale approaches the paper's parameters (minutes to hours).
func FullScale() Scale {
	return Scale{
		BatchSize:        4096,
		Fig6aBatches:     80,
		Fig6bBatchCounts: []int{20, 40, 80, 160, 320, 640},
		Fig6cSwitchEvery: 81920,

		YCSBRecords:    1_000_000,
		CCDuration:     5 * time.Second,
		Fig7bPhase:     30 * time.Second,
		Fig7bIntervals: 15,

		PreparedRows:  200_000,
		PreparedIters: 30_000,

		WireIters: 20_000,

		ParallelRows:     1_000_000,
		ParallelIters:    20,
		ParallelDMLIters: 10,

		DurabilityDuration: 2 * time.Second,

		StatsScale:    4,
		QORepeats:     3,
		QOTrainPasses: 120,
	}
}
