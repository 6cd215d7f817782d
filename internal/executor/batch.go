package executor

import (
	"fmt"
	"slices"

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
		return &seqScanBatch{ctx: ctx, node: t, filter: compilePred(t.Filter)}, nil
	case *plan.IndexScan:
		return &indexScanBatch{ctx: ctx, node: t, filter: compilePred(t.Filter)}, nil
	case *plan.Filter:
		if it, ok := tryParallelScan(n, ctx); ok {
			return it, nil
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &filterBatch{pred: compilePred(t.Pred), child: c}, nil
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
		return &nlJoinBatch{on: compilePred(t.On), right: r, joinOutput: joinOutputOf(l)}, nil
	case *plan.IndexJoin:
		l, err := BuildBatch(t.L, ctx)
		if err != nil {
			return nil, err
		}
		return &indexJoinBatch{ctx: ctx, node: t, filter: compilePred(t.Filter), residual: compilePred(t.Residual),
			joinOutput: joinOutputOf(l)}, nil
	case *plan.Agg:
		if pipe, w := parallelPipeline(t.Child, ctx); pipe != nil {
			return &parallelAgg{ctx: ctx, node: t, pipe: pipe, workers: w}, nil
		}
		if j, ok := t.Child.(*plan.HashJoin); ok {
			// Aggregation below the join: the probe workers fold their
			// matches straight into per-worker partials.
			if pipe, w := parallelPipeline(j.L, ctx); pipe != nil {
				jp, err := newJoinProbe(j, ctx)
				if err != nil {
					return nil, err
				}
				return &parallelAgg{ctx: ctx, node: t, pipe: pipe, workers: w, probe: jp}, nil
			}
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &aggBatch{node: t, child: c}, nil
	case *plan.Sort:
		if pipe, w := parallelPipeline(t.Child, ctx); pipe != nil {
			return &parallelSort{sorter: sorter{keys: t.Keys}, ctx: ctx, pipe: pipe, workers: w}, nil
		}
		c, err := BuildBatch(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &sortBatch{sorter: sorter{keys: t.Keys}, child: c}, nil
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
		// Top-k: a sort under the limit, with at most a streaming
		// projection between them, keeps only the first N rows.
		sorted := c
		if p, ok := c.(*projectBatch); ok {
			sorted = p.child
		}
		switch s := sorted.(type) {
		case *sortBatch:
			s.limit = t.N
		case *parallelSort:
			s.limit = t.N
		}
		return &limitBatch{n: t.N, child: c}, nil
	default:
		// The write nodes and Predict do not stream: see Execute.
		return nil, fmt.Errorf("executor: unsupported plan node %T", n)
	}
}

// buildHashJoinBatch picks the hash-join shape: parallel probe when the
// probe (left) side is a large-enough pipeline, serial batch join otherwise;
// the build side degrades independently (see newJoinProbe).
func buildHashJoinBatch(t *plan.HashJoin, ctx *Ctx) (BatchIter, error) {
	jp, err := newJoinProbe(t, ctx)
	if err != nil {
		return nil, err
	}
	if pipe, w := parallelPipeline(t.L, ctx); pipe != nil {
		pipe.stages = append(pipe.stages, pipeStage{probe: jp})
		return &parallelHashJoin{parallelScan: parallelScan{ctx: ctx, pipe: pipe, workers: w}, probe: jp}, nil
	}
	l, err := BuildBatch(t.L, ctx)
	if err != nil {
		return nil, err
	}
	return &hashJoinBatch{probe: jp, joinOutput: joinOutputOf(l)}, nil
}

// --- scans ---

// seqScanBatch is the vectorized heap scan: each page costs one heap lock,
// one buffer-pool touch and one visibility call (see pageRows).
type seqScanBatch struct {
	ctx    *Ctx
	node   *plan.SeqScan
	filter pred
	page   uint32             // next heap page to read
	buf    []*storage.Version // chain-head scratch
	done   bool
}

func (s *seqScanBatch) Open() error {
	s.buf = make([]*storage.Version, storage.RowsPerPage)
	return nil
}

func (s *seqScanBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for !s.done && dst.Len() < BatchSize {
		var ok bool
		dst.Rows, ok = pageRows(s.ctx, s.node.Table, s.page, &s.filter, s.buf, dst.Rows, nil)
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
	ctx    *Ctx
	node   *plan.IndexScan
	filter pred
	ids    []storage.RowID
	pos    int
	heads  []*storage.Version // indexFetch scratch
	kept   []storage.RowID    // indexFetch scratch (row identity is unused here)
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
		s.heads, s.kept, dst.Rows = indexFetch(s.ctx, s.node, &s.filter, s.ids[s.pos:end], s.heads, s.kept[:0], dst.Rows)
		s.pos = end
	}
	return dst.Len(), nil
}

func (s *indexScanBatch) Close() error { return nil }

// --- row transforms ---

// filterBatch compacts each child batch in place, pulling more batches until
// at least one row survives or the input ends (so 0 still means EOF).
type filterBatch struct {
	pred  pred
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
			if f.pred.keep(row) {
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
	// One fresh slab per batch holds every output row: emitted rows stay
	// valid after later refills, as the BatchIter contract requires, at one
	// allocation per batch instead of one per row.
	width := len(p.exprs)
	slab := make([]rel.Value, len(p.in.Rows)*width)
	dst.Rows = slices.Grow(dst.Rows, len(p.in.Rows))
	for r, row := range p.in.Rows {
		out := rel.Row(slab[r*width : (r+1)*width : (r+1)*width])
		for i, e := range p.exprs {
			out[i] = e.Eval(row)
		}
		dst.Append(out)
	}
	return dst.Len(), nil
}

func (p *projectBatch) Close() error { return p.child.Close() }
