package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"neurdb/internal/aiengine"
	"neurdb/internal/armnet"
	"neurdb/internal/executor"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
	"neurdb/internal/sqlparse"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// Per-layer metric names. Every traced run reports all of them; a metric
// whose layer the workload does not exercise reads 0 (README.md has the
// table of which workload should move which).
const (
	lWireSelf      = "wire.self_ms"
	lWireBytes     = "wire.bytes_per_op"
	lWireWrites    = "wire.writes_per_op"
	lParse         = "sqlparse.parse_us"
	lPlan          = "optimizer.plan_us"
	lPlanCacheHit  = "plancache.hit_rate"
	lExec          = "executor.exec_ms"
	lRowsExamined  = "executor.rows_examined_per_row"
	lStripeWait    = "txn.stripe_wait_share"
	lConflictRetry = "txn.conflict_retry_share"
	lPoolHit       = "pool.hit_rate"
	lPoolTouches   = "pool.touches_per_op"
	lScanPages     = "storage.scan_pages_per_s"
	lFsyncs        = "wal.fsyncs_per_commit"
	lWalAmp        = "wal.bytes_per_user_byte"
	lSyncP50       = "wal.sync_p50_ms"
	lSyncP99       = "wal.sync_p99_ms"
	lCkptS         = "wal.ckpt_s"
	lCkptBytes     = "wal.ckpt_bytes"
	lRecoverS      = "wal.recover_s"
	lAITrain       = "ai.train_samples_per_s"
	lAIInfer       = "ai.infer_rows_per_s"
	lAIExtract     = "ai.extract_ms"
	lAIFinetune    = "ai.finetune_share"
	lTraceOverhead = "trace_overhead"
)

// Layer probes replay this many operations per path, or as many as fit in
// runConfig.probeBudget, whichever is fewer.
const (
	probeOps    = 2_000
	probeStream = 1 << 20 // random stream of the replayed operation sample
)

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runTraced produces the per-layer metrics. It first measures an untraced
// reference window on a stack of its own, then builds a second stack with the
// filesystem and listener wrappers installed and runs the same workload with
// spans on; traced/untraced throughput is the tracing overhead. Counter
// deltas over the traced window give the ratios; afterwards a seeded sample
// of the workload's operations is replayed against each layer's public
// functions, every call wrapped in a span.
func runTraced(w *workload, seed int64, cfg runConfig) (*result, error) {
	inst := w.make(seed, cfg.scale)
	window := cfg.window / 2
	dir := filepath.Join(cfg.workdir, fmt.Sprintf("data-%s-%d-traced", w.name, seed))

	ref, err := boot(w, inst, dir, nil)
	if err != nil {
		return nil, err
	}
	warm := runPhase(ref, w.conns, cfg.warmup, nil, 1, seed)
	untraced := runPhase(ref, w.conns, window, nil, 1, seed)
	if err := errors.Join(ref.teardown(), warm.firstErr); err != nil {
		return nil, fmt.Errorf("untraced reference: %w", err)
	}

	tr := newTracer()
	st, err := boot(w, inst, dir, tr)
	if err != nil {
		return nil, err
	}
	defer st.teardown()
	warm = runPhase(st, w.conns, cfg.warmup, nil, 1, seed)
	before, versions := st.snapshot(), modelVersions(st)
	tr.on.Store(true)
	traced := runPhase(st, w.conns, window, tr, w.traceStride, seed)
	after := st.snapshot()

	res := &result{Workload: w.name, Seed: seed, Samples: len(traced.latMs),
		Attempted: untraced.attempted + traced.attempted, Failed: untraced.failed + traced.failed}
	ops := float64(len(traced.latMs))
	touches := float64(after.poolHits - before.poolHits + after.poolMisses - before.poolMisses)
	planLookups := float64(after.planHits - before.planHits + after.planMisses - before.planMisses)
	syncs := tr.durationsMs("vfs.sync:wal")
	slices.Sort(syncs)
	syncP99, ok := percentile(syncs, 0.99)
	if !ok { // fewer than 1,000 fsyncs: no p99 to speak of
		syncP99 = 0
	}
	m := map[string]float64{
		lWireBytes:     ratio(float64(after.wire.bytes-before.wire.bytes), ops),
		lWireWrites:    ratio(float64(after.wire.writes-before.wire.writes), ops),
		lPlanCacheHit:  ratio(float64(after.planHits-before.planHits), planLookups),
		lPoolHit:       ratio(float64(after.poolHits-before.poolHits), touches),
		lPoolTouches:   ratio(touches, ops),
		lRowsExamined:  ratio(touches*storage.RowsPerPage, float64(traced.stats.rows)),
		lStripeWait:    ratio(float64(after.stripeWait-before.stripeWait), float64(after.stripeClaims-before.stripeClaims)),
		lConflictRetry: ratio(float64(traced.stats.retries), float64(traced.stats.txns)),
		lFsyncs:        ratio(float64(after.io.walSyncs-before.io.walSyncs), float64(traced.stats.txns)),
		lWalAmp:        ratio(float64(after.io.walBytes-before.io.walBytes), float64(traced.stats.userBytes)),
		lSyncP50:       median(syncs),
		lSyncP99:       syncP99,
		lAIFinetune:    ratio(float64(modelVersions(st)-versions), float64(traced.stats.predicts)),
		lTraceOverhead: ratio(traced.opsPerS, untraced.opsPerS),
	}
	res.Metrics = m

	err = errors.Join(untraced.firstErr, warm.firstErr, traced.firstErr)
	if err == nil {
		err = probeLayers(st, w, inst, tr, m, cfg.probeBudget)
	}
	tr.on.Store(false)
	res.Correct = err == nil
	if err != nil {
		res.Err = err.Error()
	}
	for _, name := range perLayerNames() {
		if _, ok := m[name]; !ok {
			m[name] = 0
		}
	}
	spans := tr.snapshot()
	res.Spans = summarizeSpans(spans)
	out := cfg.traceOut
	if out == "" {
		out = filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	}
	if err := writeSpans(out, w.name, seed, spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	return res, nil
}

// probeLayers replays a seeded operation sample over the wire and embedded,
// then feeds the statements those operations ran to the parser and planner,
// and times a heap scan, a checkpoint, the AI engine (ai_predict only) and
// recovery. It fills m and leaves the engine recovered and verified.
func probeLayers(st *stack, w *workload, inst instance, tr *tracer, m map[string]float64, budget time.Duration) error {
	wireLat, embLat, stmts, err := replay(st, inst, tr, budget)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	m[lExec] = median(embLat)
	// Negative when the client checks streamed batches while the server
	// is still producing the next ones, which the embedded path cannot do.
	m[lWireSelf] = median(wireLat) - median(embLat)

	var parseUs, planUs []float64
	for _, sql := range stmts {
		sp := tr.begin("sqlparse.Parse", -1, -1)
		t0 := time.Now()
		parsed, err := sqlparse.Parse(sql)
		parseUs = append(parseUs, float64(time.Since(t0))/1e3)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("parse %q: %w", sql, err)
		}
		sel, ok := parsed.(*sqlparse.Select)
		if !ok {
			continue
		}
		sp = tr.begin("optimizer.PlanSelect", -1, -1)
		t0 = time.Now()
		_, err = st.db.PlanSelect(sel)
		planUs = append(planUs, float64(time.Since(t0))/1e3)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("plan %q: %w", sql, err)
		}
	}
	m[lParse], m[lPlan] = median(parseUs), median(planUs)

	tbl, err := st.db.Catalog().Get(w.mainTable)
	if err != nil {
		return err
	}
	// One span covers as many whole-table passes as fit in 100 ms, so that a
	// small table is not timed by a single microsecond-long pass.
	pages, t0 := 0, time.Now()
	sp := tr.begin("storage.ScanBatch", -1, -1)
	for time.Since(t0) < 100*time.Millisecond {
		tbl.Heap.ScanBatch(func(uint32, []*storage.Version) bool { pages++; return true })
	}
	tr.end(sp)
	m[lScanPages] = ratio(float64(pages), time.Since(t0).Seconds())

	if a, ok := inst.(*aiInst); ok {
		if err := a.probeEngine(st, tr, m); err != nil {
			return fmt.Errorf("ai engine probe: %w", err)
		}
	}

	ioBefore := st.fs.counts()
	sp = tr.begin("DB.Checkpoint", -1, -1)
	t0 = time.Now()
	err = st.db.Checkpoint()
	m[lCkptS] = time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	m[lCkptBytes] = float64(st.fs.counts().ckptBytes - ioBefore.ckptBytes)

	sp = tr.begin("DB.Close+OpenDB", -1, -1)
	took, err := verifyAndRecover(st, inst)
	tr.end(sp)
	m[lRecoverS] = took.Seconds()
	return err
}

// replay adds one wire connection and one embedded session whose workers
// both draw from the probe stream — so the two paths execute the same
// operation sample — and alternates between them, every operation a root
// span, so that drift during the replay affects both paths alike. It returns
// each path's operation latencies and the SQL text of every statement the
// embedded operations ran.
func replay(st *stack, inst instance, tr *tracer, budget time.Duration) (wireMs, embMs []float64, stmts []string, err error) {
	wi, err := st.addWorker(inst, tr, true, probeStream)
	if err != nil {
		return nil, nil, nil, err
	}
	ei, err := st.addWorker(inst, tr, false, probeStream)
	if err != nil {
		return nil, nil, nil, err
	}
	st.traced[ei].stmts = &stmts
	var stats opStats
	one := func(i, n int) (float64, error) {
		wk, tc := st.workers[i], st.traced[i]
		tc.opID = int64(i)<<40 | int64(n)
		tc.cur = tr.begin("replay."+tc.layer, -1, tc.opID)
		t0 := time.Now()
		err := wk.op(&stats)
		ms := float64(time.Since(t0)) / 1e6
		tr.end(tc.cur)
		tc.cur = -1
		return ms, err
	}
	for start := time.Now(); len(wireMs) < probeOps && time.Since(start) < budget; {
		w, err := one(wi, len(wireMs))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("wire: %w", err)
		}
		e, err := one(ei, len(embMs))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("embedded: %w", err)
		}
		wireMs, embMs = append(wireMs, w), append(embMs, e)
	}
	return wireMs, embMs, stmts, nil
}

// probeEngine times the AI engine's own operators on batches shaped like the
// ones PREDICT builds (three bucketed features, 128 rows per batch, one
// window of rows): Train from scratch, FineTune of that model, and Infer.
// ai.extract_ms is what is left of an embedded PREDICT after the fine-tune
// and inference it contains.
func (a *aiInst) probeEngine(st *stack, tr *tracer, m map[string]float64) error {
	const batchRows = 128
	hi := int(a.next.Load())
	// PREDICT repeats a small window for about 60 optimization steps (at
	// most 40 epochs); the full-size window is one epoch of 63 batches.
	steps := (a.window + batchRows - 1) / batchRows
	epochs := min(60/steps+1, 40)
	batches := func(epochs int) *aiengine.SliceSource {
		src := &aiengine.SliceSource{}
		for lo := hi - a.window; lo < hi; lo += batchRows {
			n := min(batchRows, hi-lo)
			x, y := nn.NewMatrix(n, 3), nn.NewMatrix(n, 1)
			for r := 0; r < n; r++ {
				feat, score := a.aiRow(lo + r)
				for f, v := range feat {
					x.Set(r, f, float64(f*aiLevels)+v*aiLevels)
				}
				y.Set(r, 0, score)
			}
			src.Batches = append(src.Batches, &aiengine.Batch{X: x, Y: y})
		}
		src.Batches = slices.Repeat(src.Batches, epochs)
		return src
	}
	eng := st.db.AIEngine()
	spec := models.Spec{Arch: "armnet", Fields: 3, Vocab: 3 * aiLevels, EmbDim: 8, Hidden: 32, Seed: 42}

	sp := tr.begin("aiengine.Train", -1, -1)
	t0 := time.Now()
	out, err := eng.Train(spec, aiengine.TrainConfig{BatchSize: batchRows, Window: 8, LR: 0.02}, batches(epochs))
	trainS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("aiengine.FineTune", -1, -1)
	t0 = time.Now()
	_, err = eng.FineTune(out.MID, 0, armnet.FreezePrefixLayers, 0.02, batches(epochs))
	tuneS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("aiengine.Infer", -1, -1)
	t0 = time.Now()
	preds, err := eng.Infer(out.MID, 0, batches(1))
	inferS := time.Since(t0).Seconds()
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(preds) != a.window {
		return fmt.Errorf("Infer returned %d predictions for %d rows", len(preds), a.window)
	}
	m[lAITrain] = ratio(2*float64(a.window*epochs), trainS+tuneS)
	m[lAIInfer] = ratio(float64(a.window), inferS)

	// Extraction: the scan PREDICT pulls its training window through,
	// called the way RunPredict calls it.
	tbl, err := st.db.Catalog().Get("review")
	if err != nil {
		return err
	}
	mgr := st.db.TxnManager()
	var extractMs []float64
	for i := 0; i < 5; i++ {
		tx := mgr.Begin(txn.Snapshot, true)
		ctx := &executor.Ctx{Mgr: mgr, Txn: tx, Cat: st.db.Catalog(), Workers: runtime.GOMAXPROCS(0)}
		kept := 0
		sp := tr.begin("executor.ScanBatches", -1, -1)
		t0 := time.Now()
		err := executor.ScanBatches(ctx, tbl, func(b *rel.Batch) error {
			for _, row := range b.Rows {
				if id := int(row[0].AsInt()); id >= hi-a.window && id < hi {
					kept++
				}
			}
			return nil
		})
		extractMs = append(extractMs, float64(time.Since(t0))/1e6)
		tr.end(sp)
		mgr.Abort(tx)
		if err != nil {
			return err
		}
		if kept != a.window {
			return fmt.Errorf("extraction kept %d rows, want %d", kept, a.window)
		}
	}
	m[lAIExtract] = median(extractMs)
	return nil
}
