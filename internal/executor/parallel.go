// Morsel-driven intra-query parallelism (HyPer-style): a page-range
// dispatcher over the heap feeds a worker pool that runs fused
// scan→filter→project pipelines, with parallel implementations of
// aggregation (per-worker partial accumulators merged in heap first-seen
// order), sort (per-worker sorted runs + pairwise merge with a heap-order
// tie break), and hash join (lock-striped parallel build, parallel probe).
// An aggregate over a hash join with a parallel probe side aggregates below
// the join: the probe is the last stage of the aggregation's pipeline and
// each worker folds its matches into its partial, so no joined row is
// materialized. All parallel operators emit exactly the row sequence their
// serial counterparts produce: morsels are re-sequenced in heap order by a
// bounded ring of rendezvous slots, and partials carry heap-order sequence
// numbers, so downstream operators — and differential tests — cannot tell
// the paths apart (float SUM/AVG excepted: addition order over partials is
// not associative, see docs/ARCHITECTURE.md).
package executor

import (
	"slices"
	"sort"
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
	w := ctx.Workers
	if m := (pages + MorselPages - 1) / MorselPages; w > m {
		w = m
	}
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
// that is what makes the exchange race-free; the aggregation, sort and
// join-build workers pass back one buffer of their own, morsel after morsel.
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

func newParallelScan(ctx *Ctx, pipe *scanPipeline, workers int) *parallelScan {
	return &parallelScan{ctx: ctx, pipe: pipe, workers: workers}
}

// tryParallelScan returns a morsel-parallel iterator when n is a pure
// scan→filter→project pipeline over a heap large enough to split.
func tryParallelScan(n plan.Node, ctx *Ctx) (BatchIter, bool) {
	pipe, w := parallelPipeline(n, ctx)
	if pipe == nil {
		return nil, false
	}
	return newParallelScan(ctx, pipe, w), true
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
// starts, and each worker joins its morsel's rows a probe row at a time into
// a reused scratch slab and folds every match into its partial — no joined
// row is kept (aggAcc.slot clones a group's first one), re-sequenced or
// aggregated on one goroutine. A match's sequence is morsel<<32 plus the
// count of matches before it in the morsel; matches come in probe-row order,
// then bucket (build) order, so the sequences order the joined rows exactly
// as the serial join emits them and first-seen group order is the serial one.
type parallelAgg struct {
	ctx     *Ctx
	node    *plan.Agg
	pipe    *scanPipeline
	workers int
	probe   *joinProbe // nil: aggregate the pipeline's rows

	out []rel.Row
	pos int
}

func (a *parallelAgg) Open() error {
	if a.probe != nil {
		if err := a.probe.open(); err != nil {
			return err
		}
	}
	ms := a.pipe.table.Heap.NewMorselSource(MorselPages)
	partials := make([]*aggAcc, a.workers)
	var wg sync.WaitGroup
	wg.Add(a.workers)
	for w := 0; w < a.workers; w++ {
		go func(w int) {
			parallelWorkerCount.Add(1)
			defer parallelWorkerCount.Add(-1)
			defer wg.Done()
			acc := newAggAcc(a.node)
			buf := make([]*storage.Version, storage.RowsPerPage)
			var rows, joined []rel.Row
			var slab []rel.Value
			for {
				var idx int
				idx, rows = a.pipe.morselRows(a.ctx, ms, buf, rows)
				if idx < 0 {
					break
				}
				seq := uint64(idx) << 32
				if a.probe == nil {
					for _, row := range rows {
						acc.add(row, seq)
						seq++
					}
					continue
				}
				for _, l := range rows {
					joined, slab = a.probe.joinRow(joined[:0], slab[:0], l)
					for _, row := range joined {
						acc.add(row, seq)
						seq++
					}
				}
			}
			partials[w] = acc
		}(w)
	}
	wg.Wait()
	merged := partials[0]
	for _, p := range partials[1:] {
		merged.mergeFrom(p)
	}
	a.out = merged.finalize()
	return nil
}

func (a *parallelAgg) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for a.pos < len(a.out) && dst.Len() < BatchSize {
		dst.Append(a.out[a.pos])
		a.pos++
	}
	return dst.Len(), nil
}

func (a *parallelAgg) Close() error { return nil }

// --- parallel sort ---

// sortRun is one worker's share of a parallel sort: rows with precomputed
// columnar key values, a heap-order sequence per row, and a sorted index
// permutation over them.
type sortRun struct {
	rows []rel.Row
	keys [][]rel.Value // [key][row]
	seqs []uint64
	idx  []int32
}

// parallelSort parallelizes key extraction and run sorting across workers,
// then k-way-merges the runs. Ties on every sort key break on the row's
// heap-order sequence, which reproduces the serial operator's stable sort
// exactly (stability there means heap order too).
type parallelSort struct {
	ctx     *Ctx
	keys    []plan.SortKey
	pipe    *scanPipeline
	workers int

	out []rel.Row
	pos int
}

// less orders (run a, position ai) against (run b, position bi) by the sort
// keys with a heap-sequence tie break. Positions index the runs' idx
// permutations' targets directly.
func (s *parallelSort) less(a *sortRun, ai int32, b *sortRun, bi int32) bool {
	for k := range s.keys {
		c := rel.Compare(a.keys[k][ai], b.keys[k][bi])
		if c == 0 {
			continue
		}
		if s.keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seqs[ai] < b.seqs[bi]
}

func (s *parallelSort) Open() error {
	ms := s.pipe.table.Heap.NewMorselSource(MorselPages)
	runs := make([]*sortRun, s.workers)
	var wg sync.WaitGroup
	wg.Add(s.workers)
	for w := 0; w < s.workers; w++ {
		go func(w int) {
			parallelWorkerCount.Add(1)
			defer parallelWorkerCount.Add(-1)
			defer wg.Done()
			run := &sortRun{keys: make([][]rel.Value, len(s.keys))}
			buf := make([]*storage.Version, storage.RowsPerPage)
			var rows []rel.Row
			for {
				var idx int
				idx, rows = s.pipe.morselRows(s.ctx, ms, buf, rows)
				if idx < 0 {
					break
				}
				seq := uint64(idx) << 32
				for _, row := range rows {
					run.rows = append(run.rows, row)
					run.seqs = append(run.seqs, seq)
					seq++
					for k := range s.keys {
						run.keys[k] = append(run.keys[k], s.keys[k].E.Eval(row))
					}
				}
			}
			run.idx = make([]int32, len(run.rows))
			for i := range run.idx {
				run.idx[i] = int32(i)
			}
			// The seq tie break makes the order total, so an unstable
			// sort is deterministic here.
			sort.Slice(run.idx, func(i, j int) bool {
				return s.less(run, run.idx[i], run, run.idx[j])
			})
			runs[w] = run
		}(w)
	}
	wg.Wait()

	// Merge the runs pairwise, tree-wise: each round halves the run count,
	// with every pair merged on its own goroutine, so the merge does
	// O(n log w) work across workers instead of O(n·w) on one. The seq tie
	// break makes the order total, so every merge schedule — pairwise or
	// the old k-way — produces the one sorted sequence: output identical.
	for len(runs) > 1 {
		next := make([]*sortRun, (len(runs)+1)/2)
		var mwg sync.WaitGroup
		for i := 0; i+1 < len(runs); i += 2 {
			mwg.Add(1)
			go func(i int) {
				parallelWorkerCount.Add(1)
				defer parallelWorkerCount.Add(-1)
				defer mwg.Done()
				next[i/2] = s.mergeRuns(runs[i], runs[i+1])
			}(i)
		}
		if len(runs)%2 == 1 {
			next[len(next)-1] = runs[len(runs)-1]
		}
		mwg.Wait()
		runs = next
	}
	final := runs[0]
	s.out = make([]rel.Row, len(final.rows))
	for i, p := range final.idx {
		s.out[i] = final.rows[p]
	}
	return nil
}

// mergeRuns merges two sorted runs into one whose idx permutation is the
// identity (rows, keys, and seqs are laid out in sorted order), so merged
// runs compose with further merges and with the final extraction.
func (s *parallelSort) mergeRuns(a, b *sortRun) *sortRun {
	n := len(a.idx) + len(b.idx)
	out := &sortRun{
		rows: make([]rel.Row, 0, n),
		seqs: make([]uint64, 0, n),
		keys: make([][]rel.Value, len(s.keys)),
		idx:  make([]int32, n),
	}
	for k := range out.keys {
		out.keys[k] = make([]rel.Value, 0, n)
	}
	take := func(r *sortRun, p int32) {
		out.rows = append(out.rows, r.rows[p])
		out.seqs = append(out.seqs, r.seqs[p])
		for k := range out.keys {
			out.keys[k] = append(out.keys[k], r.keys[k][p])
		}
	}
	ai, bi := 0, 0
	for ai < len(a.idx) && bi < len(b.idx) {
		if s.less(b, b.idx[bi], a, a.idx[ai]) {
			take(b, b.idx[bi])
			bi++
		} else {
			take(a, a.idx[ai])
			ai++
		}
	}
	for ; ai < len(a.idx); ai++ {
		take(a, a.idx[ai])
	}
	for ; bi < len(b.idx); bi++ {
		take(b, b.idx[bi])
	}
	for i := range out.idx {
		out.idx[i] = int32(i)
	}
	return out
}

func (s *parallelSort) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for s.pos < len(s.out) && dst.Len() < BatchSize {
		dst.Append(s.out[s.pos])
		s.pos++
	}
	return dst.Len(), nil
}

func (s *parallelSort) Close() error { return nil }

// --- parallel hash join ---

// joinProbe is a hash join's build side and match logic, shared by the
// three operators that probe it: the serial hashJoinBatch, the pipeline
// stage of parallelHashJoin and the fused parallelAgg. open builds the table
// — with a worker pool when the build side is a large-enough pipeline
// (buildPipe), serially from the batch iterator right otherwise — before any
// probe runs; afterwards it is read-only, so workers share it.
type joinProbe struct {
	ctx          *Ctx
	node         *plan.HashJoin
	residual     pred
	buildPipe    *scanPipeline
	buildWorkers int
	right        BatchIter // serial build input; nil when buildPipe is set
	table        map[uint64][]rel.Row
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

// open builds the probe table. Either way every bucket is in build (heap)
// order, so probe match order does not depend on how the table was built.
func (jp *joinProbe) open() error {
	if jp.buildPipe != nil {
		jp.table = buildJoinTableParallel(jp.ctx, jp.buildPipe, jp.node.RKey, jp.buildWorkers)
		return nil
	}
	if err := jp.right.Open(); err != nil {
		return err
	}
	defer jp.right.Close()
	jp.table = make(map[uint64][]rel.Row)
	build := rel.NewBatch(BatchSize)
	for {
		n, err := jp.right.NextBatch(build)
		if err != nil || n == 0 {
			return err
		}
		for _, row := range build.Rows {
			if key := row[jp.node.RKey]; !key.IsNull() {
				h := key.Hash()
				jp.table[h] = append(jp.table[h], row)
			}
		}
	}
}

// joinRow appends to out, via emitJoined's slab, l⋈r for every build row r
// that joins the probe row l: a NULL key joins nothing, the hash bucket is
// rechecked with rel.Equal, and the residual must hold on the joined row.
func (jp *joinProbe) joinRow(out []rel.Row, slab []rel.Value, l rel.Row) ([]rel.Row, []rel.Value) {
	key := l[jp.node.LKey]
	if key.IsNull() {
		return out, slab
	}
	for _, r := range jp.table[key.Hash()] {
		if rel.Equal(r[jp.node.RKey], key) {
			out, slab = emitJoined(out, slab, l, r, &jp.residual)
		}
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

// joinStripeCount is the lock striping of the parallel build table: hash
// buckets are distributed over this many independently locked stripes.
const joinStripeCount = 64

// buildJoinTableParallel drains a build-side pipeline with a worker pool
// into a lock-striped hash table, then flattens it into the plain probe
// table with every bucket sorted by build (heap) sequence — probe match
// order is therefore identical to a serial build.
func buildJoinTableParallel(ctx *Ctx, pipe *scanPipeline, rkey, workers int) map[uint64][]rel.Row {
	type buildEnt struct {
		seq uint64
		row rel.Row
	}
	type stripe struct {
		mu sync.Mutex
		m  map[uint64][]buildEnt
	}
	stripes := make([]*stripe, joinStripeCount)
	for i := range stripes {
		stripes[i] = &stripe{m: make(map[uint64][]buildEnt)}
	}
	ms := pipe.table.Heap.NewMorselSource(MorselPages)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			parallelWorkerCount.Add(1)
			defer parallelWorkerCount.Add(-1)
			defer wg.Done()
			buf := make([]*storage.Version, storage.RowsPerPage)
			local := make([]map[uint64][]buildEnt, joinStripeCount)
			var rows []rel.Row
			for {
				var idx int
				idx, rows = pipe.morselRows(ctx, ms, buf, rows)
				if idx < 0 {
					return
				}
				// Accumulate the morsel into worker-local stripe maps, then
				// splice each touched stripe under one lock acquisition —
				// per-morsel instead of per-row locking. The post-build
				// bucket sort restores deterministic (seq) order, so splice
				// interleaving across workers is irrelevant.
				base := uint64(idx) << 32
				for i, row := range rows {
					key := row[rkey]
					if key.IsNull() {
						continue
					}
					h := key.Hash()
					s := h % joinStripeCount
					if local[s] == nil {
						local[s] = make(map[uint64][]buildEnt)
					}
					local[s][h] = append(local[s][h], buildEnt{base + uint64(i), row})
				}
				for s, m := range local {
					if m == nil {
						continue
					}
					st := stripes[s]
					st.mu.Lock()
					for h, ents := range m {
						st.m[h] = append(st.m[h], ents...)
					}
					st.mu.Unlock()
					local[s] = nil
				}
			}
		}()
	}
	wg.Wait()
	// Flatten: the per-bucket seq sort is embarrassingly parallel (stripes
	// partition the hash space), so workers claim stripes from an atomic
	// counter and sort concurrently; only the final map assembly — bucket
	// pointers, no row data — runs single-threaded.
	flat := make([]map[uint64][]rel.Row, joinStripeCount)
	var nextStripe atomic.Int64
	var swg sync.WaitGroup
	swg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			parallelWorkerCount.Add(1)
			defer parallelWorkerCount.Add(-1)
			defer swg.Done()
			for {
				si := int(nextStripe.Add(1)) - 1
				if si >= joinStripeCount {
					return
				}
				st := stripes[si]
				if len(st.m) == 0 {
					continue
				}
				m := make(map[uint64][]rel.Row, len(st.m))
				for h, ents := range st.m {
					sort.Slice(ents, func(i, j int) bool { return ents[i].seq < ents[j].seq })
					rows := make([]rel.Row, len(ents))
					for i, e := range ents {
						rows[i] = e.row
					}
					m[h] = rows
				}
				flat[si] = m
			}
		}()
	}
	swg.Wait()
	table := make(map[uint64][]rel.Row)
	for _, m := range flat {
		for h, rows := range m {
			table[h] = rows
		}
	}
	return table
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
