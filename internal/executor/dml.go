package executor

import (
	"fmt"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// InsertRow inserts one row into a table within the context transaction,
// maintaining indexes and statistics.
func InsertRow(ctx *Ctx, t *catalog.Table, row rel.Row) (storage.RowID, error) {
	if len(row) != t.Schema.Arity() {
		return storage.RowID{}, fmt.Errorf("executor: insert arity %d into %s%s", len(row), t.Name, t.Schema)
	}
	for i, col := range t.Schema.Cols {
		if col.NotNull && row[i].IsNull() {
			return storage.RowID{}, fmt.Errorf("executor: null value in NOT NULL column %s.%s", t.Name, col.Name)
		}
	}
	id, err := ctx.Mgr.Insert(t.Heap, row, ctx.Txn)
	if err != nil {
		return storage.RowID{}, err
	}
	for _, ix := range t.Indexes() {
		ix.Insert(row[ix.Col], id)
	}
	t.Stats.NoteInsert(row)
	return id, nil
}

// InsertBatch inserts rows into a table within the context transaction with
// one transaction-manager call for the whole batch, per-batch index
// maintenance, and a single statistics note — the insert-side counterpart of
// the page-batched UpdateWhere/DeleteWhere path. Every row is validated up
// front, so a constraint violation inserts nothing. It returns the assigned
// RowIDs in row order.
func InsertBatch(ctx *Ctx, t *catalog.Table, rows []rel.Row) ([]storage.RowID, error) {
	for _, row := range rows {
		if len(row) != t.Schema.Arity() {
			return nil, fmt.Errorf("executor: insert arity %d into %s%s", len(row), t.Name, t.Schema)
		}
		for i, col := range t.Schema.Cols {
			if col.NotNull && row[i].IsNull() {
				return nil, fmt.Errorf("executor: null value in NOT NULL column %s.%s", t.Name, col.Name)
			}
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

// dmlScan drives the shared page-batched DML loop: each heap page is read
// through Manager.ReadPageVisible (one visibility call per page), filtered
// by the predicate, and handed to apply as aligned id/row slices. apply runs
// before the scan moves to the next page; updates only replace chain heads
// on the page just visited (deletes free no slots mid-transaction), so the
// page-snapshot scan never re-observes the statement's own writes.
func dmlScan(ctx *Ctx, t *catalog.Table, where rel.Expr, apply func(ids []storage.RowID, rows []rel.Row) error) (int, error) {
	total := 0
	ids := make([]storage.RowID, 0, storage.RowsPerPage)
	rows := make([]rel.Row, 0, storage.RowsPerPage)
	cursor := t.Heap.NewBatchCursor()
	for {
		pageID, heads, ok := cursor.NextPage()
		if !ok {
			return total, nil
		}
		ids, rows = ctx.Mgr.ReadPageVisible(t.ID, pageID, heads, ctx.Txn, ids[:0], rows[:0])
		if where != nil {
			k := 0
			for i, row := range rows {
				if where.Eval(row).AsBool() {
					ids[k], rows[k] = ids[i], rows[i]
					k++
				}
			}
			ids, rows = ids[:k], rows[:k]
		}
		if len(ids) == 0 {
			continue
		}
		if err := apply(ids, rows); err != nil {
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
// fetched and handed to apply one heap page at a time, in heap order — the
// same sequence of apply calls dmlScan makes for the rows it selects, so
// writes, index postings and statistics notes land identically.
func dmlIndexScan(ctx *Ctx, n *plan.IndexScan, apply func(ids []storage.RowID, rows []rel.Row) error) (int, error) {
	all, err := indexScanIDs(n)
	if err != nil {
		return 0, err
	}
	total := 0
	var heads []*storage.Version
	var ids []storage.RowID
	var rows []rel.Row
	for start := 0; start < len(all); {
		end := start + 1
		for end < len(all) && all[end].Page == all[start].Page {
			end++
		}
		heads, ids, rows = indexFetch(ctx, n, all[start:end], heads, ids[:0], rows[:0])
		start = end
		if len(ids) == 0 {
			continue
		}
		if err := apply(ids, rows); err != nil {
			return 0, err
		}
		total += len(ids)
	}
	return total, nil
}

// dmlRows runs apply over the rows the access node src selects, a page
// batch at a time. src is what optimizer.AccessPath returns: a SeqScan or an
// IndexScan over the target table. A large-enough SeqScan is dispatched
// through the morsel-parallel write path instead (see dmlParallel; set is
// nil for DELETE); results are identical either way.
func dmlRows(ctx *Ctx, src plan.Node, set map[int]rel.Expr, apply func(ids []storage.RowID, rows []rel.Row) error) (int, error) {
	switch s := src.(type) {
	case *plan.SeqScan:
		if w := pipelineWorkers(ctx, &scanPipeline{table: s.Table}); w > 1 {
			return dmlParallel(ctx, s.Table, set, s.Filter, w)
		}
		return dmlScan(ctx, s.Table, s.Filter, apply)
	case *plan.IndexScan:
		return dmlIndexScan(ctx, s, apply)
	default:
		return 0, fmt.Errorf("executor: DML row source must be a table scan, got %T", src)
	}
}

// scanTable returns the table an access node reads (nil for any other node;
// dmlRows rejects those before a row is touched).
func scanTable(src plan.Node) *catalog.Table {
	switch s := src.(type) {
	case *plan.SeqScan:
		return s.Table
	case *plan.IndexScan:
		return s.Table
	default:
		return nil
	}
}

// UpdateWhere updates the rows the access node src selects, setting columns
// via the given expressions (evaluated against the old row). Writes, index
// maintenance, and statistics are applied per page batch. It returns the
// number of rows updated.
func UpdateWhere(ctx *Ctx, src plan.Node, set map[int]rel.Expr) (int, error) {
	t := scanTable(src)
	news := make([]rel.Row, 0, storage.RowsPerPage)
	return dmlRows(ctx, src, set, func(ids []storage.RowID, olds []rel.Row) error {
		news = news[:0]
		for _, row := range olds {
			newRow := row.Clone()
			for col, e := range set {
				newRow[col] = e.Eval(row)
			}
			news = append(news, newRow)
		}
		if err := ctx.Mgr.UpdateBatch(t.Heap, ids, news, ctx.Txn); err != nil {
			return err
		}
		for _, ix := range t.Indexes() {
			for i, old := range olds {
				if !rel.Equal(old[ix.Col], news[i][ix.Col]) {
					// Lazy maintenance: add the new key; stale postings for
					// the old key are filtered by visibility + recheck on
					// scan.
					ix.Insert(news[i][ix.Col], ids[i])
				}
			}
		}
		t.Stats.NoteUpdateBatch(olds, news)
		return nil
	})
}

// DeleteWhere deletes the rows the access node src selects, batching
// statistics maintenance per page. It returns the number of rows deleted.
func DeleteWhere(ctx *Ctx, src plan.Node) (int, error) {
	t := scanTable(src)
	return dmlRows(ctx, src, nil, func(ids []storage.RowID, rows []rel.Row) error {
		if err := ctx.Mgr.DeleteBatch(t.Heap, ids, ctx.Txn); err != nil {
			return err
		}
		t.Stats.NoteDeleteBatch(rows)
		return nil
	})
}

// ScanAll returns every row visible to the context transaction (ANALYZE
// uses this). It rides the page-batched read path: one heap lock, one
// buffer-pool touch, and one visibility call per page.
func ScanAll(ctx *Ctx, t *catalog.Table) []rel.Row {
	out := make([]rel.Row, 0, t.Heap.LiveRows())
	cursor := t.Heap.NewBatchCursor()
	for {
		pageID, heads, ok := cursor.NextPage()
		if !ok {
			return out
		}
		out = ctx.Mgr.ReadPage(t.ID, pageID, heads, ctx.Txn, out)
	}
}

// ScanBatches streams every row visible to the context transaction through
// visit, batch-at-a-time, without ever materializing the full table. When
// ctx.Workers allows it the batches are produced by the morsel-parallel
// pipeline (in heap order); otherwise by the serial page cursor. The batch
// passed to visit is reused between calls — visit must copy what it keeps.
// The benchmark referee's extraction probe streams a table through this.
func ScanBatches(ctx *Ctx, t *catalog.Table, visit func(*rel.Batch) error) error {
	pipe := &scanPipeline{table: t}
	var it BatchIter
	if w := pipelineWorkers(ctx, pipe); w > 1 {
		it = newParallelScan(ctx, pipe, w)
	} else {
		it = &seqScanBatch{ctx: ctx, node: &plan.SeqScan{Table: t}}
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
