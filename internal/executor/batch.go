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

// BuildBatch compiles a plan into a batch-iterator tree. Filter, Project
// and HashJoin nodes compile into the pipeline of their source (see
// pipelineOf), which runs morsel-parallel on ctx.Workers workers when the
// source is a large-enough heap and serially otherwise; Agg and Sort drain
// their input pipeline the same way. A LIMIT directly over a scan pipeline
// forces it serial because the short-circuit beats the fan-out.
func BuildBatch(n plan.Node, ctx *Ctx) (BatchIter, error) {
	switch t := n.(type) {
	case *plan.SeqScan, *plan.Filter, *plan.Project, *plan.HashJoin:
		p, err := pipelineOf(n, ctx)
		if err != nil {
			return nil, err
		}
		return p.stream(), nil
	case *plan.IndexScan:
		return &indexScanBatch{ctx: ctx, probe: newProbe(ctx, t), filter: compilePred(ctx, t.Filter)}, nil
	case *plan.NLJoin:
		l, err := BuildBatch(t.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := BuildBatch(t.R, ctx)
		if err != nil {
			return nil, err
		}
		return &nlJoinBatch{on: compilePred(ctx, t.On), right: r, joinOutput: joinOutputOf(l)}, nil
	case *plan.IndexJoin:
		l, err := BuildBatch(t.L, ctx)
		if err != nil {
			return nil, err
		}
		return &indexJoinBatch{ctx: ctx, node: t, filter: compilePred(ctx, t.Filter), residual: compilePred(ctx, t.Residual),
			joinOutput: joinOutputOf(l)}, nil
	case *plan.Agg:
		p, err := pipelineOf(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &parallelAgg{pipeline: p, groupBy: ctx.bindExprs(t.GroupBy), items: bindItems(ctx, t.Items)}, nil
	case *plan.Sort:
		p, err := pipelineOf(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		keys := bindEach(ctx, t.Keys, func(k plan.SortKey) rel.Expr { return k.E }, func(k *plan.SortKey, e rel.Expr) { k.E = e })
		return &parallelSort{sorter: sorter{keys: keys}, pipeline: p}, nil
	case *plan.Limit:
		cctx := ctx
		if scanChain(t.Child) {
			// LIMIT directly over a streaming scan stops after N rows; a
			// parallel scan would read far past them to re-sequence
			// morsels. Blocking children (sort/agg/joins) consume their
			// whole input regardless, so they keep their parallelism.
			cctx = ctx.serialized()
		}
		c, err := BuildBatch(t.Child, cctx)
		if err != nil {
			return nil, err
		}
		// Top-k: a sort under the limit, with at most a projection between
		// them, keeps only the first N rows.
		switch below := t.Child.(type) {
		case *plan.Sort:
			c.(*parallelSort).limit = t.N
		case *plan.Project:
			if _, ok := below.Child.(*plan.Sort); ok {
				c.(*pipeStream).src.(*parallelSort).limit = t.N
			}
		default: // no sort under the limit
		}
		return &limitBatch{n: t.N, child: c}, nil
	case *plan.Insert, *plan.Update, *plan.Delete, *plan.Predict:
		// These run to completion instead of streaming: see Execute. No
		// default, on purpose: neurdb-lint fails a new node kind that
		// neither dispatch lists.
	}
	return nil, fmt.Errorf("executor: %T does not stream rows; run it with Execute", n)
}

// scanChain reports whether n is a SeqScan under Filter and Project nodes
// only.
func scanChain(n plan.Node) bool {
	for {
		switch t := n.(type) {
		case *plan.SeqScan:
			return true
		case *plan.Filter:
			n = t.Child
		case *plan.Project:
			n = t.Child
		default:
			return false
		}
	}
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
	probe  probe
	filter pred
	ids    []storage.RowID
	pos    int
	heads  []*storage.Version // indexFetch scratch
	kept   []storage.RowID    // indexFetch scratch (row identity is unused here)
}

func (s *indexScanBatch) Open() error {
	s.ids = indexScanIDs(&s.probe)
	return nil
}

func (s *indexScanBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for dst.Len() < BatchSize && s.pos < len(s.ids) {
		end := min(s.pos+BatchSize-dst.Len(), len(s.ids))
		s.heads, s.kept, dst.Rows = indexFetch(s.ctx, &s.probe, &s.filter, s.ids[s.pos:end], s.heads, s.kept[:0], dst.Rows)
		s.pos = end
	}
	return dst.Len(), nil
}

func (s *indexScanBatch) Close() error { return nil }
