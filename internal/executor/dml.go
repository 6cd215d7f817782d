// UPDATE and DELETE run one claim-then-note loop (dmlRows) at any worker
// count and from either access path. Its rows come in chunks: a heap scan's
// page-range morsels, read on the same morsel workers as the read
// operators, or an index scan's one chunk. The worker that reads a chunk
// runs the statement on it — visibility, predicate, new-row computation and
// the striped batch claim. Once every chunk is claimed, the coordinator
// replays index postings and statistics notes in chunk order, so what an
// index scan or a stats estimate sees cannot tell worker counts apart.
// Claims may interleave across workers, which is safe: a claim only stamps
// XMax and swaps the chain head, and commit order comes from the manager's
// clock, not claim order.
package executor

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

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
			ix.BT.Insert(row[ix.Col], ids[i])
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
	rows = ctx.Mgr.ReadPage(pg, buf[:n], ctx.Txn, rows, ids)
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

// dmlChunk is one chunk of a DML statement, filled by the worker that read
// and claimed it and read by the coordinator once every worker is done: the
// claimed RowIDs, the old rows and, for UPDATE, their replacements (nil for
// DELETE), or the error that refused the claim.
type dmlChunk struct {
	ids  []storage.RowID
	olds []rel.Row
	news []rel.Row
	err  error
}

// claim writes the chunk's rows. DELETE (set is nil) claims them; UPDATE
// computes each replacement from its old row — the SET expressions see the
// old values — passes it through checkRow like any row entering the heap,
// and claims the replacements. The batch call claims page run by page run,
// so one chunk's claims land in heap order.
func (c *dmlChunk) claim(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr) {
	if set == nil {
		c.err = ctx.Mgr.DeleteBatch(t.Heap, c.ids, ctx.Txn)
		return
	}
	c.news = make([]rel.Row, 0, len(c.olds))
	for _, old := range c.olds {
		row := old.Clone()
		for col, e := range set {
			row[col] = e.Eval(old)
		}
		if c.err = checkRow(t, row); c.err != nil {
			return
		}
		c.news = append(c.news, row)
	}
	c.err = ctx.Mgr.UpdateBatch(t.Heap, c.ids, c.news, ctx.Txn)
}

// noteWritten follows a claimed chunk with what depends on it: index
// postings and the statistics note (news is nil after a DELETE). Index
// maintenance is lazy: an UPDATE posts a changed key and leaves the old
// posting behind, a DELETE removes none — visibility and the recheck filter
// them on scan.
func noteWritten(t *catalog.Table, ids []storage.RowID, olds, news []rel.Row) {
	if news == nil {
		t.Stats.NoteDeleteBatch(olds)
		return
	}
	for _, ix := range t.Indexes() {
		for i, old := range olds {
			if !rel.Equal(old[ix.Col], news[i][ix.Col]) {
				ix.BT.Insert(news[i][ix.Col], ids[i])
			}
		}
	}
	t.Stats.NoteUpdateBatch(olds, news)
}

// dmlMorsels reads a heap scan's morsels on heapWorkers workers, each worker
// claiming the rows it read, and returns morsel i's outcome as chunk i. A
// failed claim stops every worker before its next morsel. An update only
// replaces chain heads on pages already read, and a delete frees no slot
// mid-transaction, so the scan never meets the statement's own writes.
func dmlMorsels(ctx *Ctx, s *plan.SeqScan, set map[int]rel.Expr) []dmlChunk {
	p, _ := pipelineOf(s, ctx) // a SeqScan is a source and builds nothing
	ms := s.Table.Heap.NewMorselSource(MorselPages)
	chunks := make([]dmlChunk, ms.Morsels())
	var failed atomic.Bool
	fanOut(p.workers, func(int) {
		buf := make([]*storage.Version, storage.RowsPerPage)
		var ids []storage.RowID
		var rows []rel.Row
		for !failed.Load() {
			var idx int
			if idx, rows = p.readMorsel(ms, buf, rows, &ids); idx < 0 {
				return
			}
			if len(ids) == 0 {
				continue
			}
			c := &chunks[idx]
			c.ids, c.olds = slices.Clone(ids), slices.Clone(rows)
			if c.claim(ctx, s.Table, set); c.err != nil {
				failed.Store(true)
			}
		}
	})
	if p.workers > 1 {
		ctx.DMLParallelPages += ms.Pages()
	}
	return chunks
}

// dmlRows is the one UPDATE and DELETE loop: it writes the rows the access
// node src selects and returns their number. set holds UPDATE's assignments
// and is nil for DELETE. src is what optimizer.AccessPath returns: a SeqScan
// over the target table, read and claimed as heap morsels (dmlMorsels), or
// an IndexScan, one chunk claimed on the caller's goroutine. The index
// postings are materialized before the first write, so the statement never
// chases its own index insertions (the Halloween problem: "SET k = k + 10
// WHERE k >= 5" would otherwise meet every row again under its new key).
//
// Once every chunk is claimed, the index postings and statistics notes are
// replayed in chunk order, which is heap order — and only if no chunk
// failed, so a refused or conflicting statement leaves both as they were,
// at any worker count and on either access path.
func dmlRows(ctx *Ctx, src plan.Node, set map[int]rel.Expr) (int, error) {
	set = bindSet(ctx, set)
	var t *catalog.Table
	var chunks []dmlChunk
	switch s := src.(type) {
	case *plan.SeqScan:
		t, chunks = s.Table, dmlMorsels(ctx, s, set)
	case *plan.IndexScan:
		p := newProbe(ctx, s)
		filter := compilePred(ctx, s.Filter)
		var c dmlChunk
		_, c.ids, c.olds = indexFetch(ctx, &p, &filter, indexScanIDs(&p), nil, nil, nil)
		c.claim(ctx, s.Table, set)
		t, chunks = s.Table, []dmlChunk{c}
	default:
		return 0, fmt.Errorf("executor: DML row source must be a table scan, got %T", src)
	}
	total := 0
	for _, c := range chunks {
		if c.err != nil {
			return 0, c.err
		}
		total += len(c.ids)
	}
	for _, c := range chunks {
		noteWritten(t, c.ids, c.olds, c.news)
	}
	return total, nil
}

// bindSet binds UPDATE's assignments, copying the map only when one of them
// has a parameter.
func bindSet(ctx *Ctx, set map[int]rel.Expr) map[int]rel.Expr {
	var out map[int]rel.Expr
	for col, e := range set {
		if b := ctx.bind(e); b != e {
			if out == nil {
				out = maps.Clone(set)
			}
			out[col] = b
		}
	}
	if out == nil {
		return set
	}
	return out
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
