// Package executor runs physical plans. Row-producing plans compile to one
// tree of batch-at-a-time operators (BuildBatch), morsel-parallel where the
// plan and the table size allow; INSERT maintains indexes and statistics
// per batch, UPDATE and DELETE once every chunk of rows is claimed, so a
// failed statement notes nothing; PREDICT streams the rows of its two access
// nodes to the AI engine as one task — labelled batches train, unlabelled
// batches predict (paper Fig. 1).
package executor

import (
	"cmp"
	"slices"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// Ctx carries the execution environment.
type Ctx struct {
	Mgr *txn.Manager
	Txn *txn.Txn
	Cat *catalog.Catalog
	// Workers caps intra-query parallelism: plans built under this context
	// fan morsel pipelines out to at most this many goroutines. 0 or 1
	// keeps execution serial (the zero value preserves the behaviour of
	// callers that never opt in).
	Workers int
	// Args are the statement's parameter values. Operators substitute them
	// for the plan's rel.Params as they are compiled (see bind), so a cached
	// plan runs as it is, shared by every execution. An index scan reads its
	// parameter bounds in place: Args must not change until the statement's
	// operators are closed.
	Args []rel.Value
	// DMLParallelPages reports back how many heap pages the last DML
	// statement wrote on more than one morsel worker (0 when it ran on
	// one). Written by the DML coordinator after its workers have
	// joined, so a plain int is safe. Tests read it to witness that a
	// statement took the parallel path.
	DMLParallelPages int
}

// bind is e with the statement's arguments in place of its parameters, or e
// itself when it has none. Each operator binds the plan expressions it reads
// once, as it is compiled.
func (ctx *Ctx) bind(e rel.Expr) rel.Expr { return rel.SubstParams(e, ctx.Args) }

// bindEach binds the expression get reads from each element of xs; set
// stores a bound one into a copy of its element. xs is copied only when some
// expression has a parameter, and never written.
func bindEach[T any](ctx *Ctx, xs []T, get func(T) rel.Expr, set func(*T, rel.Expr)) []T {
	out := xs
	for i, x := range xs {
		e := get(x)
		b := ctx.bind(e)
		if b == e {
			continue
		}
		if &out[0] == &xs[0] {
			out = slices.Clone(xs)
		}
		set(&out[i], b)
	}
	return out
}

// bindExprs binds a list of expressions (bindEach).
func (ctx *Ctx) bindExprs(es []rel.Expr) []rel.Expr {
	return bindEach(ctx, es, func(e rel.Expr) rel.Expr { return e }, func(p *rel.Expr, e rel.Expr) { *p = e })
}

// valueOf is the value of e, an expression over no columns — a probe bound
// or a VALUES cell — under the statement's arguments; nil for no
// expression. A literal is its own value and a parameter the argument
// itself, so neither allocates.
func (ctx *Ctx) valueOf(e rel.Expr) *rel.Value {
	switch t := e.(type) {
	case nil:
		return nil
	case *rel.Const:
		return &t.Val
	case *rel.Param:
		if t.Idx < len(ctx.Args) {
			return &ctx.Args[t.Idx]
		}
	}
	v := ctx.bind(e).Eval(nil)
	return &v
}

// valuesRows is v's rows with every hole filled from the statement's
// arguments. Rows without a hole are the plan's own; a row with one is
// copied first.
func (ctx *Ctx) valuesRows(v plan.Values) []rel.Row {
	if len(v.Holes) == 0 {
		return v.Rows
	}
	rows := slices.Clone(v.Rows)
	copied := -1 // holes are in row order: one clone per row
	for _, h := range v.Holes {
		if h.Row != copied {
			rows[h.Row], copied = rows[h.Row].Clone(), h.Row
		}
		rows[h.Row][h.Col] = *ctx.valueOf(h.E)
	}
	return rows
}

// --- index access, shared by the scan, the join probe and index-driven DML ---

// probe is an index scan with its bounds resolved for one execution: eq, lo
// and hi are the values of the node's Eq, Lo and Hi, nil where it has none.
type probe struct {
	*plan.IndexScan
	eq, lo, hi *rel.Value
}

// newProbe resolves n's bounds (valueOf), once per statement.
func newProbe(ctx *Ctx, n *plan.IndexScan) probe {
	return probe{IndexScan: n, eq: ctx.valueOf(n.Eq), lo: ctx.valueOf(n.Lo), hi: ctx.valueOf(n.Hi)}
}

// indexScanIDs materializes the rows an index scan will visit: the probe's
// postings, in heap order, each RowID once.
//
// Index maintenance is lazy — an update that changes a row's key adds a
// posting under the new key and leaves the old one behind — so one row can
// sit under several keys of a probed range (or twice under one key it left
// and came back to). Visiting a RowID once, and accepting the row only if
// its current key satisfies the probe (indexRecheck), is what makes a scan
// return each row at most once. Heap order also lets the fetch pay one heap
// lock and one buffer-pool touch per run of postings on the same page, and
// gives index-driven DML the page-by-page order of the heap scan it
// replaces.
//
// A range probe collects into dst, an empty slice whose array the caller
// lends (nil allocates one), and returns it grown; an equality probe returns
// the index's own slice, which no caller may write.
func indexScanIDs(p *probe, dst []storage.RowID) []storage.RowID {
	for _, b := range [...]*rel.Value{p.eq, p.lo, p.hi} {
		if b != nil && b.IsNull() {
			return dst // a comparison with NULL matches no row
		}
	}
	ids := dst
	if p.eq != nil {
		ids = p.Index.BT.Lookup(*p.eq)
	} else {
		p.Index.BT.Range(p.lo, p.hi, func(_ rel.Value, got []storage.RowID) bool {
			ids = append(ids, got...)
			return true
		})
	}
	// Lookup's slice belongs to the index; Range appended into ours.
	return heapOrder(ids, p.eq == nil)
}

// heapOrder returns ids in heap order with each RowID once — the form every
// index consumer (scan, DML, join probe) visits postings in. The common case
// (keys loaded in heap order, no stale postings) is already ascending and is
// returned as is; otherwise the slice is sorted and compacted, in place when
// the caller owns it and on a copy when it belongs to the index.
func heapOrder(ids []storage.RowID, owned bool) []storage.RowID {
	order := func(a, b storage.RowID) int {
		if c := cmp.Compare(a.Page, b.Page); c != 0 {
			return c
		}
		return cmp.Compare(a.Slot, b.Slot)
	}
	ascending := true
	for i := 1; i < len(ids) && ascending; i++ {
		ascending = order(ids[i-1], ids[i]) < 0
	}
	if ascending {
		return ids
	}
	if !owned {
		ids = slices.Clone(ids)
	}
	slices.SortFunc(ids, order)
	return slices.Compact(ids)
}

// indexRecheck verifies the index condition against the fetched row: a
// posting can be stale when an update changed the key (lazy index
// maintenance) or vacuum handed the slot to another row. A NULL key fails
// every comparison, so it never matches.
func indexRecheck(p *probe, row rel.Row) bool {
	v := row[p.Index.Col]
	if v.IsNull() {
		return false
	}
	if p.eq != nil {
		return rel.Equal(v, *p.eq)
	}
	if p.lo != nil && rel.Compare(v, *p.lo) < 0 {
		return false
	}
	if p.hi != nil && rel.Compare(v, *p.hi) > 0 {
		return false
	}
	return true
}

// indexFetch reads the rows at ids (heap order, as indexScanIDs returns
// them) that are visible to the context transaction and satisfy the scan's
// probe and its residual filter (p.Filter compiled), appending them to rows
// and their RowIDs to keep (aligned). Chain heads are resolved in one
// batched heap call: one heap lock, and one buffer-pool touch per run of ids
// on the same page; heads is scratch.
func indexFetch(ctx *Ctx, p *probe, filter *pred, ids []storage.RowID, heads []*storage.Version, keep []storage.RowID, rows []rel.Row) ([]*storage.Version, []storage.RowID, []rel.Row) {
	heads = p.Table.Heap.Heads(ids, heads[:0])
	for i, id := range ids {
		row, visible := ctx.Mgr.ReadHead(heads[i], ctx.Txn)
		if !visible || !indexRecheck(p, row) || !filter.keep(row) {
			continue
		}
		keep = append(keep, id)
		rows = append(rows, row)
	}
	return heads, keep, rows
}
