// Package executor evaluates physical plans with Volcano-style iterators
// and implements DML with index and statistics maintenance. It also hosts
// the in-database AI operators (train / inference / fine-tune) that bridge
// query processing to the AI engine (paper Fig. 1).
package executor

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	// DMLParallelPages reports back how many heap pages the last DML
	// statement processed through the morsel-parallel write path (0 when it
	// ran serially). Written by the DML coordinator after its workers have
	// joined, so a plain int is safe; the session layer feeds it to the
	// monitor's dml.parallel_pages series.
	DMLParallelPages int
}

// Iter is a pull-based row iterator. Next returns (nil, nil) at the end.
type Iter interface {
	Open() error
	Next() (rel.Row, error)
	Close() error
}

// Build compiles a row-producing plan for a row-at-a-time consumer: the
// batch engine (BuildBatch) behind the row adapter.
func Build(n plan.Node, ctx *Ctx) (Iter, error) {
	b, err := BuildBatch(n, ctx)
	if err != nil {
		return nil, err
	}
	return NewRowIter(b), nil
}

// buildScalar compiles a plan into the legacy row-at-a-time iterator tree,
// with no batch operators anywhere. The batch engine (BuildBatch) replaced it
// on the hot path; it remains the reference implementation for differential
// tests and the baseline for the vectorization benchmarks.
func buildScalar(n plan.Node, ctx *Ctx) (Iter, error) {
	switch t := n.(type) {
	case *plan.SeqScan:
		return &seqScanIter{ctx: ctx, node: t}, nil
	case *plan.IndexScan:
		return &indexScanIter{ctx: ctx, node: t}, nil
	case *plan.HashJoin:
		l, err := buildScalar(t.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := buildScalar(t.R, ctx)
		if err != nil {
			return nil, err
		}
		return &hashJoinIter{node: t, left: l, right: r}, nil
	case *plan.NLJoin:
		l, err := buildScalar(t.L, ctx)
		if err != nil {
			return nil, err
		}
		r, err := buildScalar(t.R, ctx)
		if err != nil {
			return nil, err
		}
		return &nlJoinIter{node: t, left: l, right: r}, nil
	case *plan.IndexJoin:
		l, err := buildScalar(t.L, ctx)
		if err != nil {
			return nil, err
		}
		return &indexJoinIter{ctx: ctx, node: t, left: l}, nil
	case *plan.Filter:
		c, err := buildScalar(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &filterIter{pred: t.Pred, child: c}, nil
	case *plan.Project:
		c, err := buildScalar(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &projectIter{exprs: t.Exprs, child: c}, nil
	case *plan.Agg:
		c, err := buildScalar(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &aggIter{node: t, child: c}, nil
	case *plan.Sort:
		c, err := buildScalar(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &sortIter{keys: t.Keys, child: c}, nil
	case *plan.Limit:
		c, err := buildScalar(t.Child, ctx)
		if err != nil {
			return nil, err
		}
		return &limitIter{n: t.N, child: c}, nil
	default:
		return nil, fmt.Errorf("executor: unsupported plan node %T", n)
	}
}

// Run executes a row-producing plan to completion on the batch engine and
// returns all rows.
func Run(n plan.Node, ctx *Ctx) ([]rel.Row, error) {
	it, err := BuildBatch(n, ctx)
	if err != nil {
		return nil, err
	}
	if err := it.Open(); err != nil {
		return nil, err
	}
	defer it.Close()
	var out []rel.Row
	batch := rel.NewBatch(BatchSize)
	for {
		cnt, err := it.NextBatch(batch)
		if err != nil {
			return nil, err
		}
		if cnt == 0 {
			return out, nil
		}
		out = append(out, batch.Rows...)
	}
}

// --- scans ---

type seqScanIter struct {
	ctx    *Ctx
	node   *plan.SeqScan
	cursor *storage.Cursor
}

func (it *seqScanIter) Open() error {
	it.cursor = it.node.Table.Heap.NewCursor()
	return nil
}

func (it *seqScanIter) Next() (rel.Row, error) {
	for {
		id, head, ok := it.cursor.Next()
		if !ok {
			return nil, nil
		}
		row, visible := it.ctx.Mgr.ReadHead(it.node.Table.ID, id, head, it.ctx.Txn)
		if !visible {
			continue
		}
		if it.node.Filter != nil && !it.node.Filter.Eval(row).AsBool() {
			continue
		}
		return row, nil
	}
}

func (it *seqScanIter) Close() error { return nil }

type indexScanIter struct {
	ctx  *Ctx
	node *plan.IndexScan
	ids  []storage.RowID
	pos  int
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
func indexScanIDs(n *plan.IndexScan) ([]storage.RowID, error) {
	if n.EqArg != 0 || n.LoArg != 0 || n.HiArg != 0 {
		return nil, fmt.Errorf("executor: index scan on %q has unbound parameters (apply plan.BindParams first)", n.Index.Name)
	}
	for _, b := range []*rel.Value{n.Eq, n.Lo, n.Hi} {
		if b != nil && b.IsNull() {
			return nil, nil // a comparison with NULL matches no row
		}
	}
	var ids []storage.RowID
	switch {
	case n.Eq != nil:
		ids = n.Index.Lookup(*n.Eq)
	case n.Index.BT != nil:
		n.Index.BT.Range(n.Lo, n.Hi, func(_ rel.Value, got []storage.RowID) bool {
			ids = append(ids, got...)
			return true
		})
	default:
		return nil, fmt.Errorf("executor: range scan over hash index %q", n.Index.Name)
	}
	// Lookup's slice belongs to the index; Range appended into ours.
	return heapOrder(ids, n.Eq == nil), nil
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
func indexRecheck(n *plan.IndexScan, row rel.Row) bool {
	v := row[n.Index.Col]
	if v.IsNull() {
		return false
	}
	if n.Eq != nil {
		return rel.Equal(v, *n.Eq)
	}
	if n.Lo != nil && rel.Compare(v, *n.Lo) < 0 {
		return false
	}
	if n.Hi != nil && rel.Compare(v, *n.Hi) > 0 {
		return false
	}
	return true
}

// indexFetch reads the rows at ids (heap order, as indexScanIDs returns
// them) that are visible to the context transaction and satisfy the scan's
// probe and residual filter, appending them to rows and their RowIDs to
// keep (aligned). Chain heads are resolved in one batched heap call: one
// heap lock, and one buffer-pool touch per run of ids on the same page;
// heads is scratch.
func indexFetch(ctx *Ctx, n *plan.IndexScan, ids []storage.RowID, heads []*storage.Version, keep []storage.RowID, rows []rel.Row) ([]*storage.Version, []storage.RowID, []rel.Row) {
	heads = n.Table.Heap.Heads(ids, heads[:0])
	for i, id := range ids {
		row, visible := ctx.Mgr.ReadHead(n.Table.ID, id, heads[i], ctx.Txn)
		if !visible || !indexRecheck(n, row) {
			continue
		}
		if n.Filter != nil && !n.Filter.Eval(row).AsBool() {
			continue
		}
		keep = append(keep, id)
		rows = append(rows, row)
	}
	return heads, keep, rows
}

func (it *indexScanIter) Open() error {
	ids, err := indexScanIDs(it.node)
	it.ids = ids
	return err
}

func (it *indexScanIter) Next() (rel.Row, error) {
	for it.pos < len(it.ids) {
		id := it.ids[it.pos]
		it.pos++
		row, visible := it.ctx.Mgr.Read(it.node.Table.Heap, id, it.ctx.Txn)
		if !visible || !indexRecheck(it.node, row) {
			continue
		}
		if it.node.Filter != nil && !it.node.Filter.Eval(row).AsBool() {
			continue
		}
		return row, nil
	}
	return nil, nil
}

func (it *indexScanIter) Close() error { return nil }

// --- joins ---

type hashJoinIter struct {
	node        *plan.HashJoin
	left, right Iter
	table       map[uint64][]rel.Row
	leftRow     rel.Row
	matches     []rel.Row
	matchPos    int
}

func (it *hashJoinIter) Open() error {
	if err := it.right.Open(); err != nil {
		return err
	}
	defer it.right.Close()
	it.table = make(map[uint64][]rel.Row)
	for {
		row, err := it.right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key := row[it.node.RKey]
		if key.IsNull() {
			continue
		}
		h := key.Hash()
		it.table[h] = append(it.table[h], row)
	}
	return it.left.Open()
}

func (it *hashJoinIter) Next() (rel.Row, error) {
	for {
		if it.matchPos < len(it.matches) {
			r := it.matches[it.matchPos]
			it.matchPos++
			joined := make(rel.Row, 0, len(it.leftRow)+len(r))
			joined = append(joined, it.leftRow...)
			joined = append(joined, r...)
			if it.node.Residual != nil && !it.node.Residual.Eval(joined).AsBool() {
				continue
			}
			return joined, nil
		}
		l, err := it.left.Next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		key := l[it.node.LKey]
		if key.IsNull() {
			continue
		}
		it.leftRow = l
		bucket := it.table[key.Hash()]
		it.matches = it.matches[:0]
		for _, r := range bucket {
			if rel.Equal(r[it.node.RKey], key) {
				it.matches = append(it.matches, r)
			}
		}
		it.matchPos = 0
	}
}

func (it *hashJoinIter) Close() error { return it.left.Close() }

type nlJoinIter struct {
	node        *plan.NLJoin
	left, right Iter
	rightRows   []rel.Row
	leftRow     rel.Row
	pos         int
}

func (it *nlJoinIter) Open() error {
	if err := it.right.Open(); err != nil {
		return err
	}
	defer it.right.Close()
	for {
		row, err := it.right.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		it.rightRows = append(it.rightRows, row)
	}
	it.pos = len(it.rightRows) // force first left fetch
	return it.left.Open()
}

func (it *nlJoinIter) Next() (rel.Row, error) {
	for {
		if it.pos < len(it.rightRows) {
			r := it.rightRows[it.pos]
			it.pos++
			joined := make(rel.Row, 0, len(it.leftRow)+len(r))
			joined = append(joined, it.leftRow...)
			joined = append(joined, r...)
			if it.node.On != nil && !it.node.On.Eval(joined).AsBool() {
				continue
			}
			return joined, nil
		}
		l, err := it.left.Next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		it.leftRow = l
		it.pos = 0
	}
}

func (it *nlJoinIter) Close() error { return it.left.Close() }

type indexJoinIter struct {
	ctx      *Ctx
	node     *plan.IndexJoin
	left     Iter
	leftRow  rel.Row
	matches  []rel.Row
	matchPos int
}

func (it *indexJoinIter) Open() error { return it.left.Open() }

func (it *indexJoinIter) Next() (rel.Row, error) {
	for {
		if it.matchPos < len(it.matches) {
			r := it.matches[it.matchPos]
			it.matchPos++
			joined := make(rel.Row, 0, len(it.leftRow)+len(r))
			joined = append(joined, it.leftRow...)
			joined = append(joined, r...)
			if it.node.Residual != nil && !it.node.Residual.Eval(joined).AsBool() {
				continue
			}
			return joined, nil
		}
		l, err := it.left.Next()
		if err != nil {
			return nil, err
		}
		if l == nil {
			return nil, nil
		}
		key := l[it.node.LKey]
		if key.IsNull() {
			continue
		}
		it.leftRow = l
		it.matches = it.matches[:0]
		// Each RowID once per probe key: a row whose key moved away and back
		// has two postings under it, and both would pass the recheck.
		for _, id := range heapOrder(it.node.Index.Lookup(key), false) {
			row, visible := it.ctx.Mgr.Read(it.node.Table.Heap, id, it.ctx.Txn)
			if !visible {
				continue
			}
			// Recheck the key (stale postings) and inner filter.
			if !rel.Equal(row[it.node.Index.Col], key) {
				continue
			}
			if it.node.Filter != nil && !it.node.Filter.Eval(row).AsBool() {
				continue
			}
			it.matches = append(it.matches, row)
		}
		it.matchPos = 0
	}
}

func (it *indexJoinIter) Close() error { return it.left.Close() }

// --- row transforms ---

type filterIter struct {
	pred  rel.Expr
	child Iter
}

func (it *filterIter) Open() error { return it.child.Open() }

func (it *filterIter) Next() (rel.Row, error) {
	for {
		row, err := it.child.Next()
		if err != nil || row == nil {
			return nil, err
		}
		if it.pred.Eval(row).AsBool() {
			return row, nil
		}
	}
}

func (it *filterIter) Close() error { return it.child.Close() }

type projectIter struct {
	exprs []rel.Expr
	child Iter
}

func (it *projectIter) Open() error { return it.child.Open() }

func (it *projectIter) Next() (rel.Row, error) {
	row, err := it.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	out := make(rel.Row, len(it.exprs))
	for i, e := range it.exprs {
		out[i] = e.Eval(row)
	}
	return out, nil
}

func (it *projectIter) Close() error { return it.child.Close() }

type sortIter struct {
	keys  []plan.SortKey
	child Iter
	rows  []rel.Row
	pos   int
}

func (it *sortIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	defer it.child.Close()
	for {
		row, err := it.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		it.rows = append(it.rows, row)
	}
	sort.SliceStable(it.rows, func(i, j int) bool {
		for _, k := range it.keys {
			c := rel.Compare(k.E.Eval(it.rows[i]), k.E.Eval(it.rows[j]))
			if c == 0 {
				continue
			}
			if k.Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	return nil
}

func (it *sortIter) Next() (rel.Row, error) {
	if it.pos >= len(it.rows) {
		return nil, nil
	}
	row := it.rows[it.pos]
	it.pos++
	return row, nil
}

func (it *sortIter) Close() error { return nil }

type limitIter struct {
	n     int64
	child Iter
	seen  int64
}

func (it *limitIter) Open() error { return it.child.Open() }

func (it *limitIter) Next() (rel.Row, error) {
	if it.seen >= it.n {
		return nil, nil
	}
	row, err := it.child.Next()
	if err != nil || row == nil {
		return nil, err
	}
	it.seen++
	return row, nil
}

func (it *limitIter) Close() error { return it.child.Close() }

// --- aggregation ---

type aggState struct {
	first rel.Row
	count int64
	sums  []float64
	mins  []rel.Value
	maxs  []rel.Value
	cnts  []int64
}

type aggIter struct {
	node   *plan.Agg
	child  Iter
	groups []rel.Row
	pos    int
}

func (it *aggIter) Open() error {
	if err := it.child.Open(); err != nil {
		return err
	}
	defer it.child.Close()
	states := map[string]*aggState{}
	var order []string
	nAgg := len(it.node.Items)
	for {
		row, err := it.child.Next()
		if err != nil {
			return err
		}
		if row == nil {
			break
		}
		key := groupKey(it.node.GroupBy, row)
		st, ok := states[key]
		if !ok {
			st = &aggState{
				first: row.Clone(),
				sums:  make([]float64, nAgg),
				mins:  make([]rel.Value, nAgg),
				maxs:  make([]rel.Value, nAgg),
				cnts:  make([]int64, nAgg),
			}
			states[key] = st
			order = append(order, key)
		}
		st.count++
		for i, item := range it.node.Items {
			if item.Agg == nil {
				continue
			}
			if item.Agg.Arg == nil { // COUNT(*)
				st.cnts[i]++
				continue
			}
			v := item.Agg.Arg.Eval(row)
			if v.IsNull() {
				continue
			}
			st.cnts[i]++
			f := v.AsFloat()
			st.sums[i] += f
			if st.cnts[i] == 1 {
				st.mins[i], st.maxs[i] = v, v
			} else {
				if rel.Compare(v, st.mins[i]) < 0 {
					st.mins[i] = v
				}
				if rel.Compare(v, st.maxs[i]) > 0 {
					st.maxs[i] = v
				}
			}
		}
	}
	// Scalar aggregate over an empty input still yields one row.
	if len(order) == 0 && len(it.node.GroupBy) == 0 {
		order = append(order, "")
		states[""] = &aggState{
			sums: make([]float64, nAgg),
			mins: make([]rel.Value, nAgg),
			maxs: make([]rel.Value, nAgg),
			cnts: make([]int64, nAgg),
		}
	}
	for _, key := range order {
		st := states[key]
		out := make(rel.Row, nAgg)
		for i, item := range it.node.Items {
			if item.Agg == nil {
				if st.first == nil {
					out[i] = rel.Null()
				} else {
					out[i] = item.Key.Eval(st.first)
				}
				continue
			}
			switch item.Agg.Kind {
			case plan.AggCount:
				out[i] = rel.Int(st.cnts[i])
			case plan.AggSum:
				if st.cnts[i] == 0 {
					out[i] = rel.Null()
				} else {
					out[i] = rel.Float(st.sums[i])
				}
			case plan.AggAvg:
				if st.cnts[i] == 0 {
					out[i] = rel.Null()
				} else {
					out[i] = rel.Float(st.sums[i] / float64(st.cnts[i]))
				}
			case plan.AggMin:
				if st.cnts[i] == 0 {
					out[i] = rel.Null()
				} else {
					out[i] = st.mins[i]
				}
			case plan.AggMax:
				if st.cnts[i] == 0 {
					out[i] = rel.Null()
				} else {
					out[i] = st.maxs[i]
				}
			}
		}
		it.groups = append(it.groups, out)
	}
	return nil
}

func groupKey(groupBy []rel.Expr, row rel.Row) string {
	if len(groupBy) == 0 {
		return ""
	}
	var buf []byte
	for _, g := range groupBy {
		buf = rel.EncodeValue(buf, g.Eval(row))
	}
	return string(buf)
}

func (it *aggIter) Next() (rel.Row, error) {
	if it.pos >= len(it.groups) {
		return nil, nil
	}
	row := it.groups[it.pos]
	it.pos++
	return row, nil
}

func (it *aggIter) Close() error { return nil }
