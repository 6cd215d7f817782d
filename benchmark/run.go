package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"neurdb"
)

// workloads is the benchmark: four traffic mixes that stress different
// layers, so that for every optimization one of them exercises it and
// another bypasses it. BENCHMARK.json repeats the names and reasons.
func workloads() []*workload {
	return []*workload{
		{
			name: "kv_read", conns: 2, traceStride: 64, mainTable: "kv", make: newKV,
			why: "point, range and ad-hoc reads of a table that fits the pool, WAL idle: wire, server, plan cache and index set p50_ms; the range query, today a heap scan, sets ops_per_s",
		},
		{
			name: "oltp_transfer", conns: 2, traceStride: 4, mainTable: "accounts", make: newOLTP,
			checkpointEvery: oltpCheckpoint,
			why:             "write transactions on the layers kv_read only reads: WAL group commit, stripe claims, DML access path, checkpoint stalls",
		},
		{
			name: "olap_dashboard", conns: 1, traceStride: 1, mainTable: "facts", make: newOLAP,
			poolPages: olapPoolPages,
			why:       "scans, aggregation, hash join and sort over a table larger than the pool: executor and storage do the work, WAL none",
		},
		{
			name: "ai_predict", conns: 1, traceStride: 1, mainTable: "review", make: newAI,
			why: "PREDICT with sliding-window fine-tuning on fresh rows: aiengine, nn, armnet and models do the work, wire and WAL little",
		},
	}
}

// runConfig is what one invocation fixes for every run it makes.
type runConfig struct {
	window      time.Duration // length of the timed window (--seconds)
	warmup      time.Duration
	scale       int           // divides table sizes: 1 for every measured run, 50 in TestSmoke
	setups      int           // stacks built per untraced run; setup_s is their median
	probeBudget time.Duration // cap on the traced run's operation replay
	workdir     string
	traceOut    string // span file of traced runs ("" = <workdir>/trace-<workload>-<seed>.json)
}

// result is one run of one workload.
type result struct {
	Workload  string
	Seed      int64
	Correct   bool
	Attempted int64
	Failed    int64
	Err       string             // first failure, for the human-readable report
	Samples   int                // latencies behind the percentiles
	Metrics   map[string]float64 // end-to-end (untraced) or per-layer (traced)
	Spans     []spanSummary      // traced runs only
}

// end-to-end metric names.
const (
	mOps   = "ops_per_s"
	mP50   = "p50_ms"
	mP95   = "p95_ms"
	mP99   = "p99_ms"
	mSetup = "setup_s"
)

// endToEnd fills the metrics a user of the system would see. A percentile is
// reported only when at least minBeyond samples lie beyond it.
func endToEnd(p phase, setups []float64) (map[string]float64, int) {
	lat := slices.Clone(p.latMs)
	slices.Sort(lat)
	m := map[string]float64{mOps: p.opsPerS, mP50: median(lat), mSetup: median(setups)}
	for name, q := range map[string]float64{mP95: 0.95, mP99: 0.99} {
		if v, ok := percentile(lat, q); ok {
			m[name] = v
		}
	}
	return m, len(lat)
}

// runUntraced measures the end-to-end metrics: build the stack cfg.setups
// times (timing each; the last one is kept), warm up, then one timed window
// with no wrappers and no spans anywhere in the process.
func runUntraced(w *workload, seed int64, cfg runConfig) (*result, error) {
	inst := w.make(seed, cfg.scale)
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("data-%s-%d", w.name, seed))
	var st *stack
	var setups []float64
	for len(setups) < cfg.setups {
		if st != nil {
			if err := st.teardown(); err != nil {
				return nil, fmt.Errorf("teardown: %w", err)
			}
		}
		var err error
		if st, err = boot(w, inst, dir, nil); err != nil {
			return nil, err
		}
		setups = append(setups, st.setup.Seconds())
	}
	defer st.teardown()

	warm := runPhase(st, w.conns, cfg.warmup, nil, 1, seed)
	timed := runPhase(st, w.conns, cfg.window, nil, 1, seed)
	res := &result{Workload: w.name, Seed: seed, Attempted: timed.attempted, Failed: timed.failed}
	res.Metrics, res.Samples = endToEnd(timed, setups)
	err := errors.Join(warm.firstErr, timed.firstErr)
	if err == nil {
		_, err = verifyAndRecover(st, inst)
	}
	res.Correct = err == nil
	if err != nil {
		res.Err = err.Error()
	}
	return res, nil
}

// verifyAndRecover checks the end state on the live engine, closes it, opens
// the data directory again and checks the recovered state the same way: every
// acknowledged write must have survived. It returns the Close-to-OpenDB time.
func verifyAndRecover(st *stack, inst instance) (time.Duration, error) {
	if err := st.stopServing(); err != nil {
		return 0, fmt.Errorf("shutdown: %w", err)
	}
	if err := inst.verify(st.db); err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	t0 := time.Now()
	err := st.db.Close()
	st.db = nil
	if err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	db, err := neurdb.OpenDB(st.cfg)
	if err != nil {
		return 0, fmt.Errorf("recover: %w", err)
	}
	took := time.Since(t0)
	st.db = db
	if err := inst.verify(db); err != nil {
		return took, fmt.Errorf("verify after recovery: %w", err)
	}
	return took, nil
}
