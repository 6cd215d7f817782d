package executor

import (
	"fmt"
	"slices"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// checkRow is the one check every row passes before it enters a heap,
// whether an INSERT supplied it or an UPDATE computed it: the table's arity
// and its NOT NULL columns.
func checkRow(t *catalog.Table, row rel.Row) error {
	if len(row) != t.Schema.Arity() {
		return fmt.Errorf("executor: insert arity %d into %s%s", len(row), t.Name, t.Schema)
	}
	for i, col := range t.Schema.Cols {
		if col.NotNull && row[i].IsNull() {
			return fmt.Errorf("executor: null value in NOT NULL column %s.%s", t.Name, col.Name)
		}
	}
	return nil
}

// InsertBatch inserts rows into a table within the context transaction with
// one transaction-manager call for the whole batch, per-batch index
// maintenance, and a single statistics note. Every row is checked up front,
// so a constraint violation inserts nothing. It returns the assigned RowIDs
// in row order.
func InsertBatch(ctx *Ctx, t *catalog.Table, rows []rel.Row) ([]storage.RowID, error) {
	for _, row := range rows {
		if err := checkRow(t, row); err != nil {
			return nil, err
		}
	}
	ids, err := ctx.Mgr.InsertBatch(t.Heap, rows, ctx.Txn)
	if err != nil {
		return nil, err
	}
	for _, ix := range t.Indexes() {
		for i, row := range rows {
			ix.Insert(row[ix.Col], ids[i])
		}
	}
	t.Stats.NoteInsertBatch(rows)
	return ids, nil
}

// pageRows reads heap page pg of t: the rows visible to the context
// transaction that pass filter (nil keeps all) are appended to rows and,
// when ids is non-nil, their RowIDs to *ids (aligned with the appended
// rows). It reports false past the last page. buf is the caller's chain-head
// scratch, RowsPerPage long. Every heap scan — serial or morsel worker,
// reading or about to write — takes a page through here: one heap lock, one
// buffer-pool touch and one visibility call per page.
func pageRows(ctx *Ctx, t *catalog.Table, pg uint32, filter *pred, buf []*storage.Version, rows []rel.Row, ids *[]storage.RowID) ([]rel.Row, bool) {
	n, ok := t.Heap.PageHeads(pg, buf)
	if !ok {
		return rows, false
	}
	// (*ids)[idStart+i] is the id of rows[i] for the rows this call appends.
	start, idStart := len(rows), 0
	if ids != nil {
		idStart = len(*ids) - start
	}
	rows = ctx.Mgr.ReadPage(t.ID, pg, buf[:n], ctx.Txn, rows, ids)
	if filter.e == nil {
		return rows, true
	}
	k := start
	for i := start; i < len(rows); i++ {
		if !filter.keep(rows[i]) {
			continue
		}
		rows[k] = rows[i]
		if ids != nil {
			(*ids)[idStart+k] = (*ids)[idStart+i]
		}
		k++
	}
	if ids != nil {
		*ids = (*ids)[:idStart+k]
	}
	return rows[:k], true
}

// claimPage writes the rows one page of a DML scan selected. DELETE (set is
// nil) claims them; UPDATE computes each replacement from its old row — the
// SET expressions see the old values — passes it through checkRow like any
// row entering the heap, and claims the replacements, which it returns
// appended to news[:0]. Neither UpdateBatch nor the write records it leaves
// in the transaction keep that slice, only its rows, so a serial caller
// passes the returned slice back in as scratch for the next page.
func claimPage(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr, ids []storage.RowID, olds, news []rel.Row) ([]rel.Row, error) {
	if set == nil {
		return nil, ctx.Mgr.DeleteBatch(t.Heap, ids, ctx.Txn)
	}
	news = slices.Grow(news[:0], len(olds))
	for _, old := range olds {
		row := old.Clone()
		for col, e := range set {
			row[col] = e.Eval(old)
		}
		if err := checkRow(t, row); err != nil {
			return nil, err
		}
		news = append(news, row)
	}
	return news, ctx.Mgr.UpdateBatch(t.Heap, ids, news, ctx.Txn)
}

// noteWritten follows a claimed page with what depends on it: index postings
// and the statistics note (news is nil after a DELETE). Index maintenance is
// lazy: an UPDATE posts a changed key and leaves the old posting behind,
// a DELETE removes none — visibility and the recheck filter them on scan.
func noteWritten(t *catalog.Table, ids []storage.RowID, olds, news []rel.Row) {
	if news == nil {
		t.Stats.NoteDeleteBatch(olds)
		return
	}
	for _, ix := range t.Indexes() {
		for i, old := range olds {
			if !rel.Equal(old[ix.Col], news[i][ix.Col]) {
				ix.Insert(news[i][ix.Col], ids[i])
			}
		}
	}
	t.Stats.NoteUpdateBatch(olds, news)
}

// writePage is the serial step the two DML row sources share: claim the
// rows one page contributed, then post and note them. news is claimPage's
// scratch, returned for the next page.
func writePage(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr, ids []storage.RowID, olds, news []rel.Row) ([]rel.Row, error) {
	news, err := claimPage(ctx, t, set, ids, olds, news)
	if err != nil {
		return nil, err
	}
	noteWritten(t, ids, olds, news)
	return news, nil
}

// dmlScan drives the page-at-a-time DML loop over the heap. A page's rows
// are written before the scan moves to the next page; updates only replace
// chain heads on the page just visited (deletes free no slots
// mid-transaction), so the page-snapshot scan never re-observes the
// statement's own writes.
func dmlScan(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr, where rel.Expr) (int, error) {
	total := 0
	filter := compilePred(where)
	buf := make([]*storage.Version, storage.RowsPerPage)
	ids := make([]storage.RowID, 0, storage.RowsPerPage)
	rows := make([]rel.Row, 0, storage.RowsPerPage)
	news := make([]rel.Row, 0, storage.RowsPerPage)
	for pg := uint32(0); ; pg++ {
		var ok bool
		ids = ids[:0]
		if rows, ok = pageRows(ctx, t, pg, &filter, buf, rows[:0], &ids); !ok {
			return total, nil
		}
		if len(ids) == 0 {
			continue
		}
		var err error
		if news, err = writePage(ctx, t, set, ids, rows, news); err != nil {
			return 0, err
		}
		total += len(ids)
	}
}

// dmlIndexScan is dmlScan's index-driven counterpart: the rows come from an
// index probe instead of a pass over the heap. The posting list is
// materialized before the first write, so the statement never chases its
// own index insertions (the Halloween problem: "SET k = k + 10 WHERE k >= 5"
// would otherwise meet every row again under its new key). Rows are then
// fetched and written one heap page at a time, in heap order — the same
// sequence of writePage calls dmlScan makes for the rows it selects, so
// writes, index postings and statistics notes land identically.
func dmlIndexScan(ctx *Ctx, n *plan.IndexScan, set map[int]rel.Expr) (int, error) {
	all, err := indexScanIDs(n)
	if err != nil {
		return 0, err
	}
	total := 0
	filter := compilePred(n.Filter)
	var heads []*storage.Version
	var ids []storage.RowID
	var rows, news []rel.Row
	for start := 0; start < len(all); {
		end := start + 1
		for end < len(all) && all[end].Page == all[start].Page {
			end++
		}
		heads, ids, rows = indexFetch(ctx, n, &filter, all[start:end], heads, ids[:0], rows[:0])
		start = end
		if len(ids) == 0 {
			continue
		}
		if news, err = writePage(ctx, n.Table, set, ids, rows, news); err != nil {
			return 0, err
		}
		total += len(ids)
	}
	return total, nil
}

// dmlRows writes the rows the access node src selects, a page at a time. set
// holds UPDATE's assignments and is nil for DELETE. src is what
// optimizer.AccessPath returns: a SeqScan or an IndexScan over the target
// table. A large-enough SeqScan is dispatched through the morsel-parallel
// write path instead (see dmlParallel); results are identical either way. It
// returns the number of rows written.
func dmlRows(ctx *Ctx, src plan.Node, set map[int]rel.Expr) (int, error) {
	switch s := src.(type) {
	case *plan.SeqScan:
		if w := heapWorkers(ctx, s.Table); w > 1 {
			return dmlParallel(ctx, s.Table, set, s.Filter, w)
		}
		return dmlScan(ctx, s.Table, set, s.Filter)
	case *plan.IndexScan:
		return dmlIndexScan(ctx, s, set)
	default:
		return 0, fmt.Errorf("executor: DML row source must be a table scan, got %T", src)
	}
}

// UpdateWhere updates the rows the access node src selects, setting columns
// via the given expressions, and returns the number of rows updated.
func UpdateWhere(ctx *Ctx, src plan.Node, set map[int]rel.Expr) (int, error) {
	return dmlRows(ctx, src, set)
}

// DeleteWhere deletes the rows the access node src selects and returns their
// number.
func DeleteWhere(ctx *Ctx, src plan.Node) (int, error) {
	return dmlRows(ctx, src, nil)
}

// ScanBatches streams every row visible to the context transaction through
// visit, batch-at-a-time and in heap order, without ever materializing the
// full table: the table's scan pipeline, morsel-parallel when ctx.Workers
// and the table size allow. The batch passed to visit is reused between
// calls — visit must copy what it keeps. The benchmark referee's extraction
// probe streams a table through this.
func ScanBatches(ctx *Ctx, t *catalog.Table, visit func(*rel.Batch) error) error {
	it, err := BuildBatch(&plan.SeqScan{Table: t}, ctx)
	if err != nil {
		return err
	}
	if err := it.Open(); err != nil {
		it.Close()
		return err
	}
	defer it.Close()
	batch := rel.NewBatch(BatchSize)
	for {
		n, err := it.NextBatch(batch)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := visit(batch); err != nil {
			return err
		}
	}
}
