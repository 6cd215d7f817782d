// Morsel-driven intra-query parallelism (HyPer-style): a page-range
// dispatcher over the heap feeds a worker pool that runs fused
// scan→filter→project pipelines, with parallel implementations of
// aggregation (per-worker partial accumulators merged in heap first-seen
// order), sort (per-worker sorted runs + pairwise merge with a heap-order
// tie break), and hash join (morsel-ordered parallel build, parallel probe).
// An aggregate over a hash join with a parallel probe side aggregates below
// the join: each worker probes with its morsel's rows and folds every
// (probe row, build row) pair into its partial, so no joined row is
// materialized. All parallel operators emit exactly the row sequence their
// serial counterparts produce: morsels are re-sequenced in heap order by a
// bounded ring of rendezvous slots, and partials carry heap-order sequence
// numbers, so downstream operators — and differential tests — cannot tell
// the paths apart (float SUM/AVG excepted: addition order over partials is
// not associative, see docs/ARCHITECTURE.md).
package executor

import (
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
func ParallelWorkers() int64 { return parallelWorkerCount.Load() }

// pipeStage is one fused transform a worker applies to its morsel's rows.
// Exactly one is set: pred (pred.e) filters, exprs projects, probe joins.
type pipeStage struct {
	pred  pred
	exprs []rel.Expr
	probe *joinProbe
}

// scanPipeline is a compiled SeqScan→(Filter|Project)* plan subtree: the
// unit of morsel parallelism. Workers execute the whole pipeline against
// each morsel they claim, so filters and projections run in parallel with
// the scan instead of serially above an exchange. Its predicates are
// compiled once, here, and shared read-only by every worker.
type scanPipeline struct {
	table  *catalog.Table
	filter pred // SeqScan's pushed-down filter; zero keeps every row
	stages []pipeStage
}

// extractPipeline compiles n into a scan pipeline, reporting ok=false when
// the subtree contains anything but SeqScan/Filter/Project (index scans are
// point reads, not page ranges; blocking operators split pipelines).
func extractPipeline(n plan.Node) (*scanPipeline, bool) {
	switch t := n.(type) {
	case *plan.SeqScan:
		return &scanPipeline{table: t.Table, filter: compilePred(t.Filter)}, true
	case *plan.Filter:
		p, ok := extractPipeline(t.Child)
		if !ok {
			return nil, false
		}
		p.stages = append(p.stages, pipeStage{pred: compilePred(t.Pred)})
		return p, true
	case *plan.Project:
		p, ok := extractPipeline(t.Child)
		if !ok {
			return nil, false
		}
		p.stages = append(p.stages, pipeStage{exprs: t.Exprs})
		return p, true
	default:
		// Blocking operators and point reads split pipelines.
		return nil, false
	}
}

// pipelineWorkers decides the degree of parallelism for a pipeline under
// ctx: 0 means stay serial (workers not requested, table too small), else
// the worker count clamped to the morsel count.
func pipelineWorkers(ctx *Ctx, p *scanPipeline) int {
	if ctx == nil || ctx.Workers <= 1 || p == nil {
		return 0
	}
	pages := p.table.Heap.NumPages()
	if pages < minParallelPages {
		return 0
	}
	w := min(ctx.Workers, (pages+MorselPages-1)/MorselPages)
	if w <= 1 {
		return 0
	}
	return w
}

// parallelPipeline returns the scan pipeline n compiles to and its worker
// count when it runs morsel-parallel under ctx, else (nil, 0).
func parallelPipeline(n plan.Node, ctx *Ctx) (*scanPipeline, int) {
	p, _ := extractPipeline(n)
	if w := pipelineWorkers(ctx, p); w > 1 {
		return p, w
	}
	return nil, 0
}

// serialized returns a context copy that forces serial execution below it
// (the LIMIT-dominated fallback).
func (ctx *Ctx) serialized() *Ctx {
	c := *ctx
	c.Workers = 1
	return &c
}

// morselRows claims the next morsel and materializes its visible rows with
// every pipeline stage applied, appending them to rows[:0]. It returns
// idx=-1 once the source is drained. Only the ordered exchange passes nil,
// getting a fresh slice per morsel whose ownership goes to the consumer —
// that is what makes the exchange race-free; the workers of eachMorsel pass
// back one buffer of their own, morsel after morsel.
func (p *scanPipeline) morselRows(ctx *Ctx, ms *storage.MorselSource, buf []*storage.Version, rows []rel.Row) (int, []rel.Row) {
	idx, lo, hi, ok := ms.Next()
	if !ok {
		return -1, rows
	}
	rows = slices.Grow(rows[:0], int(hi-lo)*storage.RowsPerPage)
	for pg := lo; pg < hi; pg++ {
		rows, _ = pageRows(ctx, p.table, pg, &p.filter, buf, rows, nil)
	}
	for si := range p.stages {
		st := &p.stages[si]
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
			rows = st.probe.apply(rows)
		default:
			for i, row := range rows {
				out := make(rel.Row, len(st.exprs))
				for j, e := range st.exprs {
					out[j] = e.Eval(row)
				}
				rows[i] = out
			}
		}
	}
	return idx, rows
}

// eachMorsel claims morsels of p until ms is drained, handing fn each one's
// ordinal and rows. The rows slice is reused from morsel to morsel; the rows
// in it are not.
func (p *scanPipeline) eachMorsel(ctx *Ctx, ms *storage.MorselSource, fn func(idx int, rows []rel.Row)) {
	buf := make([]*storage.Version, storage.RowsPerPage)
	var rows []rel.Row
	for {
		var idx int
		if idx, rows = p.morselRows(ctx, ms, buf, rows); idx < 0 {
			return
		}
		fn(idx, rows)
	}
}

// fanOut runs fn(0), …, fn(n-1) on n counted morsel workers and waits for
// all of them.
func fanOut(n int, fn func(w int)) {
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

// --- ordered exchange (parallel scan/filter/project) ---

type morselOut struct {
	idx  int
	rows []rel.Row
}

// parallelScan runs a scan pipeline on a worker pool and re-emits the
// per-morsel results in morsel order, so consumers observe exactly the
// serial scan's row sequence.
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
	ctx     *Ctx
	pipe    *scanPipeline
	workers int

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

// tryParallelScan returns a morsel-parallel iterator when n is a pure
// scan→filter→project pipeline over a heap large enough to split.
func tryParallelScan(n plan.Node, ctx *Ctx) (BatchIter, bool) {
	pipe, w := parallelPipeline(n, ctx)
	if pipe == nil {
		return nil, false
	}
	return &parallelScan{ctx: ctx, pipe: pipe, workers: w}, true
}

func (s *parallelScan) Open() error {
	s.start()
	return nil
}

// start launches the worker pool. It is split from Open so the parallel
// hash join can populate its probe table first.
func (s *parallelScan) start() {
	if s.opened {
		return
	}
	s.opened = true
	ms := s.pipe.table.Heap.NewMorselSource(MorselPages)
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
}

func (s *parallelScan) worker(ms *storage.MorselSource) {
	parallelWorkerCount.Add(1)
	defer parallelWorkerCount.Add(-1)
	defer s.wg.Done()
	buf := make([]*storage.Version, storage.RowsPerPage)
	for {
		select {
		case <-s.done:
			return
		default:
		}
		idx, rows := s.pipe.morselRows(s.ctx, ms, buf, nil)
		if idx < 0 {
			return
		}
		select {
		case s.slots[idx%len(s.slots)] <- morselOut{idx, rows}:
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

// --- parallel aggregation ---

// parallelAgg aggregates a scan pipeline with per-worker partial
// accumulators merged in a final step. Groups come out in global first-seen
// heap order (each partial tracks the smallest row sequence per group), so
// the output row order matches the serial aggBatch exactly.
//
// When probe is set the pipeline is the probe side of a hash join and the
// aggregate sits on the join: Open builds the table before any worker
// starts, and each worker folds its morsel's matches into its partial as
// (probe row, build row) pairs — no joined row is built unless a group keeps
// it as its first row, or the join has a residual, which must see one (those
// go through emitJoined's scratch slab). A match's sequence is morsel<<32
// plus the count of matches before it in the morsel; matches come in
// probe-row order, then build order, so the sequences order the joined rows
// exactly as the serial join emits them and first-seen group order is the
// serial one.
type parallelAgg struct {
	ctx     *Ctx
	node    *plan.Agg
	pipe    *scanPipeline
	workers int
	probe   *joinProbe // nil: aggregate the pipeline's rows
	materialized
}

func (a *parallelAgg) Open() error {
	if a.probe != nil {
		if err := a.probe.open(); err != nil {
			return err
		}
	}
	ms := a.pipe.table.Heap.NewMorselSource(MorselPages)
	partials := make([]*aggAcc, a.workers)
	fanOut(a.workers, func(w int) {
		acc := newAggAcc(a.node)
		var joined []rel.Row
		var slab []rel.Value
		a.pipe.eachMorsel(a.ctx, ms, func(idx int, rows []rel.Row) {
			seq := uint64(idx) << 32
			for _, l := range rows {
				switch jp := a.probe; {
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
					joined, slab = jp.joinRow(joined[:0], slab[:0], l)
					for _, row := range joined {
						acc.add(row, nil, seq)
						seq++
					}
				}
			}
		})
		partials[w] = acc
	})
	merged := partials[0]
	for _, p := range partials[1:] {
		merged.mergeFrom(p)
	}
	a.out = merged.finalize()
	return nil
}

// --- parallel sort ---

// parallelSort parallelizes key extraction and run sorting across workers,
// then merges the runs pairwise. Ties on every sort key break on the row's
// heap-order sequence, which reproduces the serial operator's stable sort
// exactly (stability there means heap order too). Under a limit each worker
// keeps only its top rows (see sorter.add) and every merge stops at the
// limit.
type parallelSort struct {
	sorter
	ctx     *Ctx
	pipe    *scanPipeline
	workers int
	materialized
}

func (s *parallelSort) Open() error {
	ms := s.pipe.table.Heap.NewMorselSource(MorselPages)
	runs := make([]*sortRun, s.workers)
	fanOut(s.workers, func(w int) {
		run := s.newRun()
		s.pipe.eachMorsel(s.ctx, ms, func(idx int, rows []rel.Row) {
			seq := uint64(idx) << 32
			for _, row := range rows {
				s.add(run, row, seq)
				seq++
			}
		})
		s.sortIdx(run)
		runs[w] = run
	})
	// Merge the runs pairwise, tree-wise: each round halves the run count,
	// with every pair merged on its own goroutine, so the merge does
	// O(n log w) work across workers instead of O(n·w) on one. The seq tie
	// break makes the order total, so every merge schedule produces the one
	// sorted sequence.
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

// --- parallel hash join ---

// joinProbe is a hash join's build side and match logic, shared by the
// three operators that probe it: the serial hashJoinBatch, the pipeline
// stage of parallelHashJoin and the fused parallelAgg. open builds the
// joinTable — from a worker pool's morsels when the build side is a
// large-enough pipeline (buildPipe), serially from the batch iterator right
// otherwise — before any probe runs; afterwards it is read-only, so workers
// share it.
type joinProbe struct {
	ctx          *Ctx
	node         *plan.HashJoin
	residual     pred
	buildPipe    *scanPipeline
	buildWorkers int
	right        BatchIter // serial build input; nil when buildPipe is set
	table        *joinTable
}

func newJoinProbe(t *plan.HashJoin, ctx *Ctx) (*joinProbe, error) {
	jp := &joinProbe{ctx: ctx, node: t, residual: compilePred(t.Residual)}
	if jp.buildPipe, jp.buildWorkers = parallelPipeline(t.R, ctx); jp.buildPipe == nil {
		r, err := BuildBatch(t.R, ctx)
		if err != nil {
			return nil, err
		}
		jp.right = r
	}
	return jp, nil
}

// open builds the join table over the build rows in build (heap) order:
// parallel workers file each morsel's rows under its ordinal, and the
// morsels are concatenated in order, so the table — and probe match order —
// does not depend on how it was built.
func (jp *joinProbe) open() error {
	var rows []rel.Row
	if jp.buildPipe != nil {
		ms := jp.buildPipe.table.Heap.NewMorselSource(MorselPages)
		parts := make([][]rel.Row, ms.Morsels())
		fanOut(jp.buildWorkers, func(int) {
			jp.buildPipe.eachMorsel(jp.ctx, ms, func(idx int, morsel []rel.Row) { parts[idx] = slices.Clone(morsel) })
		})
		rows = slices.Concat(parts...)
	} else {
		if err := jp.right.Open(); err != nil {
			return err
		}
		defer jp.right.Close()
		build := rel.NewBatch(BatchSize)
		for {
			n, err := jp.right.NextBatch(build)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			rows = append(rows, build.Rows...)
		}
	}
	jp.table = newJoinTable(rows, jp.node.RKey)
	return nil
}

// joinRow appends to out, via emitJoined's slab, l⋈r for every build row r
// that joins the probe row l and passes the residual.
func (jp *joinProbe) joinRow(out []rel.Row, slab []rel.Value, l rel.Row) ([]rel.Row, []rel.Value) {
	key := &l[jp.node.LKey]
	for e := jp.table.first(key); e != 0; e = jp.table.after(e, key) {
		out, slab = emitJoined(out, slab, l, jp.table.rows[e-1], &jp.residual)
	}
	return out, slab
}

// apply is the pipeline stage: a morsel's joined rows, carved from a
// morsel-local slab whose ownership goes with them.
func (jp *joinProbe) apply(in []rel.Row) []rel.Row {
	out := make([]rel.Row, 0, len(in))
	var slab []rel.Value
	for _, l := range in {
		out, slab = jp.joinRow(out, slab, l)
	}
	return out
}

// parallelHashJoin is a hash join whose probe side is a morsel pipeline
// ending in the probe stage: Open builds the table, then streams joined rows
// through the embedded ordered exchange.
type parallelHashJoin struct {
	parallelScan
	probe *joinProbe
}

func (j *parallelHashJoin) Open() error {
	if err := j.probe.open(); err != nil {
		return err
	}
	j.start()
	return nil
}
