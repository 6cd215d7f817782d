// Morsel-driven intra-query parallelism (HyPer-style), and the one pipeline
// every filter, projection and hash-join probe runs in. A pipeline is a
// source — a heap read as page-range morsels, or any other operator's batch
// iterator — and the stages its rows pass. A streaming pipeline over a heap
// with more than one worker runs through an ordered exchange; every other
// streaming pipeline runs serially (pipeStream). The blocking operators —
// aggregation (per-worker partial accumulators merged in heap first-seen
// order), sort (per-worker sorted runs + pairwise merge with a heap-order
// tie break) and the hash join's build (morsels concatenated in heap order)
// — drain their input pipeline on its workers; the serial case is the
// one-worker run, on the caller's goroutine. An aggregate over a probe stage
// aggregates below the join: it probes with each chunk's rows and folds
// every (probe row, build row) pair into its partial, so no joined row is
// materialized. Every worker count emits the same row sequence: morsels are
// re-sequenced in heap order by a bounded ring of rendezvous slots, and
// partials carry heap-order sequence numbers, so downstream operators — and
// differential tests — cannot tell the worker counts apart (float SUM/AVG
// excepted: addition order over partials is not associative, see
// docs/ARCHITECTURE.md).
package executor

import (
	"cmp"
	"slices"
	"sync"
	"sync/atomic"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// MorselPages is the page count per morsel: 16 pages (2048 rows) is large
// enough to amortize the claim and re-sequencing cost, small enough that
// work stays balanced across workers on medium tables.
const MorselPages = 16

// minParallelPages keeps small tables serial: below two morsels' worth of
// pages the fan-out cost exceeds the scan.
const minParallelPages = 2 * MorselPages

// parallelWorkerCount tracks live morsel workers across the process
// (instrumentation; the cancellation tests assert it drains to zero).
var parallelWorkerCount atomic.Int64

// ParallelWorkers reports how many morsel workers are currently running.
//
//neurdb:reserved direction 1
func ParallelWorkers() int64 { return parallelWorkerCount.Load() }

// pipeStage is one transform the stage loop applies to a chunk of rows.
// Exactly one is set: pred (pred.e) filters, exprs projects, probe joins.
type pipeStage struct {
	pred  pred
	exprs []rel.Expr
	probe *joinProbe
}

// pipeline is a plan chain compiled for the stage loop: its source and the
// stages applied to the source's rows, bottom up. Its predicates are
// compiled once, here, and shared read-only by every worker.
type pipeline struct {
	ctx     *Ctx
	scan    *plan.SeqScan // heap source; nil for an iterator source
	filter  pred          // scan's pushed-down filter
	workers int           // morsel workers of a heap source; 1 for an iterator
	src     BatchIter     // iterator source
	stages  []pipeStage
}

// pipelineOf peels Filter, Project and HashJoin nodes off n — a HashJoin is
// a probe stage over its left input — down to a source: a SeqScan, read as
// heap morsels, or any other node, read through its BuildBatch iterator.
func pipelineOf(n plan.Node, ctx *Ctx) (pipeline, error) {
	var child plan.Node
	var st pipeStage
	switch t := n.(type) {
	case *plan.SeqScan:
		return pipeline{ctx: ctx, scan: t, filter: compilePred(ctx, t.Filter), workers: heapWorkers(ctx, t.Table)}, nil
	case *plan.Filter:
		child, st = t.Child, pipeStage{pred: compilePred(ctx, t.Pred)}
	case *plan.Project:
		child, st = t.Child, pipeStage{exprs: ctx.bindExprs(t.Exprs)}
	case *plan.HashJoin:
		jp, err := newJoinProbe(t, ctx)
		if err != nil {
			return pipeline{}, err
		}
		child, st = t.L, pipeStage{probe: jp}
	default:
		src, err := BuildBatch(n, ctx)
		return pipeline{ctx: ctx, workers: 1, src: src}, err
	}
	p, err := pipelineOf(child, ctx)
	if err != nil {
		return pipeline{}, err
	}
	p.stages = append(p.stages, st)
	return p, nil
}

// heapWorkers is the number of morsel workers a scan of t runs on under
// ctx: ctx.Workers clamped to t's morsel count, or 1 — the caller's
// goroutine — when workers were not requested or t is under
// minParallelPages.
func heapWorkers(ctx *Ctx, t *catalog.Table) int {
	pages := t.Heap.NumPages()
	if ctx.Workers <= 1 || pages < minParallelPages {
		return 1
	}
	return min(ctx.Workers, (pages+MorselPages-1)/MorselPages)
}

// serialized returns a context copy that forces serial execution below it
// (the LIMIT-dominated fallback).
func (ctx *Ctx) serialized() *Ctx {
	c := *ctx
	c.Workers = 1
	return &c
}

// stream is the pipeline as a streaming operator: the ordered exchange over
// a heap with more than one worker, the bare heap scan when there is nothing
// to apply, the serial stage loop otherwise.
func (p *pipeline) stream() BatchIter {
	if p.workers > 1 {
		return &parallelScan{pipeline: *p}
	}
	src := p.src
	if p.scan != nil {
		src = &seqScanBatch{ctx: p.ctx, node: p.scan, filter: p.filter}
		if len(p.stages) == 0 {
			return src
		}
	}
	return &pipeStream{src: src, stages: p.stages}
}

// openProbes builds every probe stage's table, bottom up, before any row
// reaches it.
func openProbes(stages []pipeStage) error {
	for _, st := range stages {
		if st.probe != nil {
			if err := st.probe.open(); err != nil {
				return err
			}
		}
	}
	return nil
}

// readMorsel claims the next morsel of ms and appends its visible rows that
// pass the scan filter to rows[:0] and, when ids is non-nil, their RowIDs
// to (*ids)[:0]. It returns idx=-1 once ms is drained. buf is the caller's
// chain-head scratch.
func (p *pipeline) readMorsel(ms *storage.MorselSource, buf []*storage.Version, rows []rel.Row, ids *[]storage.RowID) (int, []rel.Row) {
	idx, lo, hi, ok := ms.Next()
	if !ok {
		return -1, rows
	}
	rows = slices.Grow(rows[:0], int(hi-lo)*storage.RowsPerPage)
	if ids != nil {
		*ids = slices.Grow((*ids)[:0], int(hi-lo)*storage.RowsPerPage)
	}
	for pg := lo; pg < hi; pg++ {
		rows, _ = pageRows(p.ctx, p.scan.Table, pg, &p.filter, buf, rows, ids)
	}
	return idx, rows
}

// applyStages is the stage loop, the one code that filters, projects or
// probes: it runs a chunk's rows through stages in order. A filter compacts
// rows in place; a projection overwrites them in place with rows carved
// from one slab per chunk; a probe returns a fresh slice of joined rows,
// their values carved from *slab, which the caller keeps from chunk to
// chunk (a carved row is never written again).
func applyStages(stages []pipeStage, rows []rel.Row, slab *[]rel.Value) []rel.Row {
	for si := range stages {
		st := &stages[si]
		switch {
		case st.pred.e != nil:
			kept := rows[:0]
			for _, row := range rows {
				if st.pred.keep(row) {
					kept = append(kept, row)
				}
			}
			rows = kept
		case st.probe != nil:
			out := make([]rel.Row, 0, len(rows))
			for _, l := range rows {
				out, *slab = st.probe.joinRow(out, *slab, l)
			}
			rows = out
		default:
			width := len(st.exprs)
			vals := make([]rel.Value, len(rows)*width)
			for i, row := range rows {
				out := rel.Row(vals[i*width : (i+1)*width : (i+1)*width])
				for j, e := range st.exprs {
					out[j] = e.Eval(row)
				}
				rows[i] = out
			}
		}
	}
	return rows
}

// chunkSink is a blocking operator's side of drain. Each worker w calls
// start before its first chunk, chunk for every chunk it runs and done
// after its last one, all on its own goroutine — so per-worker state that
// start allocates comes from that worker's allocator cache, and two
// workers' hot fields do not share a cache line.
type chunkSink interface {
	start(w int)
	chunk(w, idx int, rows []rel.Row)
	done(w int)
}

// drain runs the pipeline to its end into a blocking operator. It builds
// the probe stages' tables, then hands every chunk to sink on the worker
// that runs it: the morsels of a heap source, which p.workers workers
// share, or the batches of an iterator source, all drained on the caller's
// goroutine as worker 0. A chunk's idx is its ordinal in source order — the
// morsel's, or the batch's — and its rows have every stage but the last
// skip applied. The rows slice is reused from chunk to chunk; the rows in
// it are not.
func (p *pipeline) drain(skip int, sink chunkSink) error {
	if err := openProbes(p.stages); err != nil {
		return err
	}
	stages := p.stages[:len(p.stages)-skip]
	if p.scan == nil {
		if err := p.src.Open(); err != nil {
			return err
		}
		defer p.src.Close()
		in := rel.NewBatch(BatchSize)
		var slab []rel.Value
		sink.start(0)
		for idx := 0; ; idx++ {
			n, err := p.src.NextBatch(in)
			if err != nil {
				return err
			}
			if n == 0 {
				sink.done(0)
				return nil
			}
			sink.chunk(0, idx, applyStages(stages, in.Rows, &slab))
		}
	}
	ms := p.scan.Table.Heap.NewMorselSource(MorselPages)
	fanOut(p.workers, func(w int) {
		buf := make([]*storage.Version, storage.RowsPerPage)
		var rows []rel.Row
		var slab []rel.Value
		sink.start(w)
		for {
			var idx int
			if idx, rows = p.readMorsel(ms, buf, rows, nil); idx < 0 {
				sink.done(w)
				return
			}
			sink.chunk(w, idx, applyStages(stages, rows, &slab))
		}
	})
	return nil
}

// fanOut runs fn(0), …, fn(n-1) on n counted morsel workers and waits for
// all of them. One worker is the caller's goroutine: fanOut(1, fn) is
// fn(0).
func fanOut(n int, fn func(w int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for w := 0; w < n; w++ {
		go func() {
			parallelWorkerCount.Add(1)
			defer parallelWorkerCount.Add(-1)
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}

// --- streaming ---

// pipeStream streams a pipeline on the caller's goroutine: each NextBatch
// pulls source batches until the stages leave some rows, and hands those
// out at most BatchSize at a time.
type pipeStream struct {
	src    BatchIter
	stages []pipeStage
	in     rel.Batch   // source batch scratch
	out    []rel.Row   // the current source batch, stages applied
	pos    int         // rows of out handed out
	slab   []rel.Value // probe stages' join-values slab
}

func (s *pipeStream) Open() error {
	if err := openProbes(s.stages); err != nil {
		return err
	}
	return s.src.Open()
}

func (s *pipeStream) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for s.pos == len(s.out) {
		n, err := s.src.NextBatch(&s.in)
		if err != nil || n == 0 {
			return 0, err
		}
		s.out, s.pos = applyStages(s.stages, s.in.Rows, &s.slab), 0
	}
	k := min(len(s.out)-s.pos, BatchSize)
	dst.Rows = append(dst.Rows, s.out[s.pos:s.pos+k]...)
	s.pos += k
	return k, nil
}

func (s *pipeStream) Close() error { return s.src.Close() }

type morselOut struct {
	idx  int
	rows []rel.Row
}

// parallelScan is the ordered exchange: it runs a heap pipeline on a worker
// pool and re-emits the per-morsel results in morsel order, so consumers
// observe exactly the serial row sequence.
//
// The exchange is a ring of 2×workers rendezvous slots, each a 1-buffered
// channel: the worker that produced morsel i sends to slots[i%len], which
// blocks until the consumer has drained morsel i-len — workers can run at
// most one ring ahead of the consumer, bounding buffered memory without a
// coordinator. Claims come from an atomic counter, so the claimed set is
// always a prefix of the morsel sequence; the slot the consumer is waiting
// on is therefore always claimed by a worker that can complete, which rules
// out deadlock. Close signals done; workers parked on a full slot observe it
// and exit, and Close joins them before returning so the caller can finalize
// the read transaction safely.
type parallelScan struct {
	pipeline

	slots   []chan morselOut
	done    chan struct{}
	wg      sync.WaitGroup
	morsels int
	nextIdx int       // next morsel ordinal to emit
	cur     []rel.Row // current morsel's rows
	pos     int
	opened  bool
	closed  bool
}

// Open builds the probe stages' tables, then launches the worker pool.
func (s *parallelScan) Open() error {
	if err := openProbes(s.stages); err != nil {
		return err
	}
	s.opened = true
	ms := s.scan.Table.Heap.NewMorselSource(MorselPages)
	s.morsels = ms.Morsels()
	s.done = make(chan struct{})
	s.slots = make([]chan morselOut, 2*s.workers)
	for i := range s.slots {
		s.slots[i] = make(chan morselOut, 1)
	}
	s.wg.Add(s.workers)
	for w := 0; w < s.workers; w++ {
		go s.worker(ms)
	}
	return nil
}

// worker runs morsels through the stages. Each morsel's rows are a fresh
// slice whose ownership goes to the consumer — that is what makes the
// exchange race-free.
func (s *parallelScan) worker(ms *storage.MorselSource) {
	parallelWorkerCount.Add(1)
	defer parallelWorkerCount.Add(-1)
	defer s.wg.Done()
	buf := make([]*storage.Version, storage.RowsPerPage)
	var slab []rel.Value
	for {
		select {
		case <-s.done:
			return
		default:
		}
		idx, rows := s.readMorsel(ms, buf, nil, nil)
		if idx < 0 {
			return
		}
		select {
		case s.slots[idx%len(s.slots)] <- morselOut{idx, applyStages(s.stages, rows, &slab)}:
		case <-s.done:
			return
		}
	}
}

func (s *parallelScan) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	if s.closed {
		return 0, nil
	}
	for {
		for s.pos < len(s.cur) && dst.Len() < BatchSize {
			dst.Append(s.cur[s.pos])
			s.pos++
		}
		if dst.Len() >= BatchSize || s.nextIdx >= s.morsels {
			return dst.Len(), nil
		}
		out := <-s.slots[s.nextIdx%len(s.slots)]
		s.cur, s.pos = out.rows, 0
		s.nextIdx++
	}
}

func (s *parallelScan) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	if s.opened {
		close(s.done)
		s.wg.Wait()
	}
	return nil
}

// --- blocking ---

// parallelAgg aggregates a pipeline with one partial accumulator per worker,
// merged in a final step. Groups come out in global first-seen order (each
// partial tracks the smallest row sequence per group), whatever the worker
// count.
//
// When the pipeline ends in a probe stage the aggregate sits on the join:
// each worker folds its chunks' matches into its partial as (probe row,
// build row) pairs — no joined row is built unless a group keeps it as its
// first row, or the join has a residual, which must see one (those go
// through emitJoined's scratch slab). A match's sequence is chunk<<32 plus
// the count of matches before it in the chunk; matches come in probe-row
// order, then build order, so the sequences order the joined rows exactly
// as the join emits them.
type parallelAgg struct {
	pipeline
	groupBy  []rel.Expr     // the node's, bound: every worker's partial reads them
	items    []plan.AggItem // likewise
	fold     *joinProbe     // the probe stage folded pairwise; nil: no join below
	partials []*aggAcc      // one per worker
	materialized
}

func (a *parallelAgg) Open() error {
	skip := 0
	if n := len(a.stages); n > 0 && a.stages[n-1].probe != nil {
		a.fold, skip = a.stages[n-1].probe, 1
	}
	a.partials = make([]*aggAcc, a.workers)
	if err := a.drain(skip, a); err != nil {
		return err
	}
	merged := a.partials[0]
	for _, p := range a.partials[1:] {
		merged.mergeFrom(p)
	}
	a.out = merged.finalize()
	return nil
}

func (a *parallelAgg) start(w int) { a.partials[w] = newAggAcc(a.groupBy, a.items) }

func (a *parallelAgg) chunk(w, idx int, rows []rel.Row) {
	acc := a.partials[w]
	seq := uint64(idx) << 32
	for _, l := range rows {
		switch jp := a.fold; {
		case jp == nil:
			acc.add(l, nil, seq)
			seq++
		case jp.residual.e == nil:
			key := &l[jp.node.LKey]
			for e := jp.table.first(key); e != 0; e = jp.table.after(e, key) {
				acc.add(l, jp.table.rows[e-1], seq)
				seq++
			}
		default:
			acc.joined, acc.slab = jp.joinRow(acc.joined[:0], acc.slab[:0], l)
			for _, row := range acc.joined {
				acc.add(row, nil, seq)
				seq++
			}
		}
	}
}

func (a *parallelAgg) done(int) {}

// parallelSort extracts keys into one run per worker and sorts each run on
// its worker, then merges the runs pairwise. Ties on every sort key break
// on the row's heap-order sequence, which makes the order total and equal
// to a stable sort's. Under a limit each worker keeps only its top rows
// (see sorter.add) and every merge stops at the limit.
type parallelSort struct {
	sorter
	pipeline
	runs []*sortRun // one per worker
	materialized
}

func (s *parallelSort) Open() error {
	s.runs = make([]*sortRun, s.workers)
	if err := s.drain(0, s); err != nil {
		return err
	}
	// Merge the runs pairwise, tree-wise: each round halves the run count,
	// with every pair merged on its own goroutine, so the merge does
	// O(n log w) work across workers instead of O(n·w) on one. The seq tie
	// break makes the order total, so every merge schedule produces the one
	// sorted sequence.
	runs := s.runs
	for len(runs) > 1 {
		next := make([]*sortRun, (len(runs)+1)/2)
		fanOut(len(runs)/2, func(i int) { next[i] = s.mergeRuns(runs[2*i], runs[2*i+1]) })
		if len(runs)%2 == 1 {
			next[len(next)-1] = runs[len(runs)-1]
		}
		runs = next
	}
	s.out = s.sorted(runs[0])
	return nil
}

func (s *parallelSort) start(w int) { s.runs[w] = s.newRun() }

func (s *parallelSort) chunk(w, idx int, rows []rel.Row) {
	seq := uint64(idx) << 32
	for _, row := range rows {
		s.add(s.runs[w], row, seq)
		seq++
	}
}

func (s *parallelSort) done(w int) { s.sortIdx(s.runs[w]) }

// joinProbe is a hash join's build side and match logic: a pipeline's probe
// stage, or the pairs an aggregate above it folds. open drains the build
// pipeline into the joinTable before any probe runs; afterwards the table
// is read-only, so workers share it.
type joinProbe struct {
	node     *plan.HashJoin
	residual pred
	build    pipeline
	parts    [][]buildChunk // open's chunks, per worker
	table    *joinTable
}

// buildChunk is a copy of one chunk of a join's build rows.
type buildChunk struct {
	idx  int
	rows []rel.Row
}

func newJoinProbe(t *plan.HashJoin, ctx *Ctx) (*joinProbe, error) {
	build, err := pipelineOf(t.R, ctx)
	if err != nil {
		return nil, err
	}
	return &joinProbe{node: t, residual: compilePred(ctx, t.Residual), build: build}, nil
}

// open builds the join table over the build rows in source (heap) order:
// each worker files its chunks under their ordinals, and the chunks are
// concatenated in order, so the table — and probe match order — does not
// depend on the worker count.
func (jp *joinProbe) open() error {
	jp.parts = make([][]buildChunk, jp.build.workers)
	if err := jp.build.drain(0, jp); err != nil {
		return err
	}
	all := slices.Concat(jp.parts...)
	jp.parts = nil
	slices.SortFunc(all, func(a, b buildChunk) int { return cmp.Compare(a.idx, b.idx) })
	n := 0
	for _, c := range all {
		n += len(c.rows)
	}
	rows := make([]rel.Row, 0, n)
	for _, c := range all {
		rows = append(rows, c.rows...)
	}
	jp.table = newJoinTable(rows, jp.node.RKey)
	return nil
}

func (jp *joinProbe) start(int) {}

func (jp *joinProbe) chunk(w, idx int, rows []rel.Row) {
	jp.parts[w] = append(jp.parts[w], buildChunk{idx, slices.Clone(rows)})
}

func (jp *joinProbe) done(int) {}

// joinRow appends to out, via emitJoined's slab, l⋈r for every build row r
// that joins the probe row l and passes the residual.
func (jp *joinProbe) joinRow(out []rel.Row, slab []rel.Value, l rel.Row) ([]rel.Row, []rel.Value) {
	key := &l[jp.node.LKey]
	for e := jp.table.first(key); e != 0; e = jp.table.after(e, key) {
		out, slab = emitJoined(out, slab, l, jp.table.rows[e-1], &jp.residual)
	}
	return out, slab
}
