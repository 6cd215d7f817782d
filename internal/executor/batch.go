package executor

import (
	"fmt"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// BatchSize is the target row count per executor batch: two heap pages per
// batch, big enough to amortize dynamic dispatch and visibility-check call
// overhead, small enough to stay cache-resident.
const BatchSize = 2 * storage.RowsPerPage

// BatchIter is the operator interface: operators exchange batches of rows
// instead of one row per virtual call.
//
// Contract: NextBatch resets dst, refills it, and returns the row count;
// 0 with a nil error means end of stream (and repeats on further calls).
// A non-empty result may hold more or fewer than BatchSize rows, but never
// 0 before the stream ends. Rows placed in dst must remain valid after
// subsequent NextBatch calls — producers pass through storage-owned rows or
// allocate fresh ones, never recycle row backing arrays.
type BatchIter interface {
	Open() error
	NextBatch(dst *rel.Batch) (int, error)
	Close() error
}

// BuildBatch compiles a plan into a batch-iterator tree. Every operator
// executes natively batch-at-a-time; when ctx.Workers > 1, subtrees that
// form scan→filter→project pipelines over large-enough heaps run
// morsel-parallel (see parallel.go), with per-plan serial fallbacks: small
// tables stay serial, and a LIMIT directly over a streaming pipeline forces
// its input serial because the short-circuit beats the fan-out.
func BuildBatch(n plan.Node, ctx *Ctx) (BatchIter, error) {
	switch t := n.(type) {
	case *plan.SeqScan:
		if it, ok := tryParallelScan(n, ctx); ok {
			return it, nil
		}
		return &seqScanBatch{ctx: ctx, node: t}, nil
	case *plan.IndexScan:
		return &indexScanBatch{ctx: ctx, node: t}, nil
	case *plan.Filter:
		if it, ok := tryParallelScan(n, ctx); ok {
			return it, nil
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &filterBatch{pred: t.Pred, child: c}, nil
	case *plan.Project:
		if it, ok := tryParallelScan(n, ctx); ok {
			return it, nil
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		// Scratch batches start empty and grow toward BatchSize on demand,
		// so short results (prepared point lookups) skip the full-size
		// allocation per execution.
		return &projectBatch{exprs: t.Exprs, child: c, in: rel.NewBatch(0)}, nil
	case *plan.HashJoin:
		return buildHashJoinBatch(t, ctx)
	case *plan.NLJoin:
		l, err := BuildBatch(t.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := BuildBatch(t.R, ctx)
		if err != nil {
			return nil, err
		}
		return &nlJoinBatch{node: t, left: l, right: r, in: rel.NewBatch(0)}, nil
	case *plan.IndexJoin:
		l, err := BuildBatch(t.L, ctx)
		if err != nil {
			return nil, err
		}
		return &indexJoinBatch{ctx: ctx, node: t, left: l, in: rel.NewBatch(0)}, nil
	case *plan.Agg:
		if pipe, ok := extractPipeline(t.Child); ok {
			if w := pipelineWorkers(ctx, pipe); w > 1 {
				return &parallelAgg{ctx: ctx, node: t, pipe: pipe, workers: w}, nil
			}
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &aggBatch{node: t, child: c}, nil
	case *plan.Sort:
		if pipe, ok := extractPipeline(t.Child); ok {
			if w := pipelineWorkers(ctx, pipe); w > 1 {
				return &parallelSort{ctx: ctx, keys: t.Keys, pipe: pipe, workers: w}, nil
			}
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &sortBatch{keys: t.Keys, child: c}, nil
	case *plan.Limit:
		cctx := ctx
		if _, ok := extractPipeline(t.Child); ok {
			// LIMIT directly over a streaming pipeline stops after N rows;
			// a parallel scan would read far past them to re-sequence
			// morsels. Blocking children (sort/agg/joins) consume their
			// whole input regardless, so they keep their parallelism.
			cctx = ctx.serialized()
		}
		c, err := BuildBatch(t.Child, cctx)
		if err != nil {
			return nil, err
		}
		return &limitBatch{n: t.N, child: c}, nil
	default:
		// The write nodes and Predict do not stream: see Execute.
		return nil, fmt.Errorf("executor: unsupported plan node %T", n)
	}
}

// buildHashJoinBatch picks the hash-join shape: parallel probe when the
// probe (left) side is a large-enough pipeline, parallel build when the
// build (right) side is, serial batch join otherwise — each side degrades
// independently.
func buildHashJoinBatch(t *plan.HashJoin, ctx *Ctx) (BatchIter, error) {
	var probePipe, buildPipe *scanPipeline
	pw, bw := 0, 0
	if p, ok := extractPipeline(t.L); ok {
		if w := pipelineWorkers(ctx, p); w > 1 {
			probePipe, pw = p, w
		}
	}
	if p, ok := extractPipeline(t.R); ok {
		if w := pipelineWorkers(ctx, p); w > 1 {
			buildPipe, bw = p, w
		}
	}
	if pw > 1 {
		jp := &joinProbe{node: t}
		probePipe.stages = append(probePipe.stages, pipeStage{probe: jp})
		j := &parallelHashJoin{
			parallelScan: parallelScan{ctx: ctx, pipe: probePipe, workers: pw},
			probe:        jp,
		}
		if bw > 1 {
			j.buildPipe, j.buildWorkers = buildPipe, bw
		} else {
			r, err := BuildBatch(t.R, ctx)
			if err != nil {
				return nil, err
			}
			j.right = r
		}
		return j, nil
	}
	l, err := BuildBatch(t.L, ctx)
	if err != nil {
		return nil, err
	}
	j := &hashJoinBatch{node: t, left: l, in: rel.NewBatch(0)}
	if bw > 1 {
		j.ctx, j.buildPipe, j.buildWorkers = ctx, buildPipe, bw
	} else {
		r, err := BuildBatch(t.R, ctx)
		if err != nil {
			return nil, err
		}
		j.right = r
	}
	return j, nil
}

// --- scans ---

// seqScanBatch is the vectorized heap scan: each page costs one heap lock,
// one buffer-pool touch and one visibility call (see pageRows).
type seqScanBatch struct {
	ctx  *Ctx
	node *plan.SeqScan
	page uint32             // next heap page to read
	buf  []*storage.Version // chain-head scratch
	done bool
}

func (s *seqScanBatch) Open() error {
	s.buf = make([]*storage.Version, storage.RowsPerPage)
	return nil
}

func (s *seqScanBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for !s.done && dst.Len() < BatchSize {
		var ok bool
		dst.Rows, ok = pageRows(s.ctx, s.node.Table, s.page, s.node.Filter, s.buf, dst.Rows, nil)
		s.page++
		s.done = !ok
	}
	return dst.Len(), nil
}

func (s *seqScanBatch) Close() error { return nil }

// indexScanBatch drains an index-posting list batch-at-a-time: each batch
// resolves up to BatchSize postings through one indexFetch call, so a range
// over clustered keys pays page-granular heap access like the sequential
// scan, and downstream operators get the dispatch amortization.
type indexScanBatch struct {
	ctx   *Ctx
	node  *plan.IndexScan
	ids   []storage.RowID
	pos   int
	heads []*storage.Version // indexFetch scratch
	kept  []storage.RowID    // indexFetch scratch (row identity is unused here)
}

func (s *indexScanBatch) Open() error {
	ids, err := indexScanIDs(s.node)
	s.ids = ids
	return err
}

func (s *indexScanBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for dst.Len() < BatchSize && s.pos < len(s.ids) {
		end := min(s.pos+BatchSize-dst.Len(), len(s.ids))
		s.heads, s.kept, dst.Rows = indexFetch(s.ctx, s.node, s.ids[s.pos:end], s.heads, s.kept[:0], dst.Rows)
		s.pos = end
	}
	return dst.Len(), nil
}

func (s *indexScanBatch) Close() error { return nil }

// --- row transforms ---

// filterBatch compacts each child batch in place, pulling more batches until
// at least one row survives or the input ends (so 0 still means EOF).
type filterBatch struct {
	pred  rel.Expr
	child BatchIter
}

func (f *filterBatch) Open() error { return f.child.Open() }

func (f *filterBatch) NextBatch(dst *rel.Batch) (int, error) {
	for {
		n, err := f.child.NextBatch(dst)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			return 0, nil
		}
		kept := dst.Rows[:0]
		for _, row := range dst.Rows {
			if f.pred.Eval(row).AsBool() {
				kept = append(kept, row)
			}
		}
		dst.Rows = kept
		if dst.Len() > 0 {
			return dst.Len(), nil
		}
	}
}

func (f *filterBatch) Close() error { return f.child.Close() }

type projectBatch struct {
	exprs []rel.Expr
	child BatchIter
	in    *rel.Batch
}

func (p *projectBatch) Open() error { return p.child.Open() }

func (p *projectBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	n, err := p.child.NextBatch(p.in)
	if err != nil || n == 0 {
		return 0, err
	}
	for _, row := range p.in.Rows {
		out := make(rel.Row, len(p.exprs))
		for i, e := range p.exprs {
			out[i] = e.Eval(row)
		}
		dst.Append(out)
	}
	return dst.Len(), nil
}

func (p *projectBatch) Close() error { return p.child.Close() }

// --- joins ---

// hashJoinBatch is the batched equi-join: Open drains the build (right)
// side batch-at-a-time into the hash table, then each probe batch from the
// left produces its joined rows in one pass. Joined rows overflowing the
// output batch are carried in pending across calls. When the planner found
// the build side morsel-parallelizable but not the probe side, buildPipe is
// set and Open builds the table with a worker pool instead of draining
// right.
type hashJoinBatch struct {
	node        *plan.HashJoin
	left, right BatchIter
	table       map[uint64][]rel.Row
	in          *rel.Batch // probe-side input scratch
	pending     []rel.Row  // joined rows awaiting emission
	pendPos     int
	slab        []rel.Value // arena joined rows are carved from
	exhausted   bool

	// Parallel-build configuration (nil/0 = serial build from right).
	ctx          *Ctx
	buildPipe    *scanPipeline
	buildWorkers int
}

// joinSlabValues sizes the output-row arena: joined rows are carved from a
// shared value slab, so the join allocates once per slab instead of once
// per output row. Emitted rows keep referencing retired slabs, which stay
// alive for exactly as long as some consumer holds one of their rows.
const joinSlabValues = 4096

// drainJoinBuild materializes a hash-join build side from a batch iterator
// into a probe table; bucket order is the input (heap) order.
func drainJoinBuild(right BatchIter, rkey int) (map[uint64][]rel.Row, error) {
	table := make(map[uint64][]rel.Row)
	build := rel.NewBatch(BatchSize)
	for {
		n, err := right.NextBatch(build)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return table, nil
		}
		for _, row := range build.Rows {
			key := row[rkey]
			if key.IsNull() {
				continue
			}
			hash := key.Hash()
			table[hash] = append(table[hash], row)
		}
	}
}

func (h *hashJoinBatch) Open() error {
	if h.buildPipe != nil {
		h.table = buildJoinTableParallel(h.ctx, h.buildPipe, h.node.RKey, h.buildWorkers)
		return h.left.Open()
	}
	if err := h.right.Open(); err != nil {
		return err
	}
	defer h.right.Close()
	table, err := drainJoinBuild(h.right, h.node.RKey)
	if err != nil {
		return err
	}
	h.table = table
	return h.left.Open()
}

func (h *hashJoinBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for dst.Len() < BatchSize {
		if h.pendPos < len(h.pending) {
			dst.Append(h.pending[h.pendPos])
			h.pendPos++
			continue
		}
		if h.exhausted {
			break
		}
		n, err := h.left.NextBatch(h.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			h.exhausted = true
			break
		}
		h.pending = h.pending[:0]
		h.pendPos = 0
		for _, l := range h.in.Rows {
			key := l[h.node.LKey]
			if key.IsNull() {
				continue
			}
			for _, r := range h.table[key.Hash()] {
				if !rel.Equal(r[h.node.RKey], key) {
					continue
				}
				width := len(l) + len(r)
				if cap(h.slab)-len(h.slab) < width {
					n := joinSlabValues
					if n < width {
						n = width
					}
					h.slab = make([]rel.Value, 0, n)
				}
				start := len(h.slab)
				h.slab = append(h.slab, l...)
				h.slab = append(h.slab, r...)
				joined := rel.Row(h.slab[start:len(h.slab):len(h.slab)])
				if h.node.Residual != nil && !h.node.Residual.Eval(joined).AsBool() {
					h.slab = h.slab[:start]
					continue
				}
				h.pending = append(h.pending, joined)
			}
		}
	}
	return dst.Len(), nil
}

func (h *hashJoinBatch) Close() error { return h.left.Close() }
