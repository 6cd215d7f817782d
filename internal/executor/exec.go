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
	"fmt"
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
	// DMLParallelPages reports back how many heap pages the last DML
	// statement wrote on more than one morsel worker (0 when it ran on
	// one). Written by the DML coordinator after its workers have
	// joined, so a plain int is safe. Tests read it to witness that a
	// statement took the parallel path.
	DMLParallelPages int
}

// Run executes a row-producing plan to completion and returns all rows.
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

// --- index access, shared by the scan, the join probe and index-driven DML ---

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
	if n.Eq != nil {
		ids = n.Index.BT.Lookup(*n.Eq)
	} else {
		n.Index.BT.Range(n.Lo, n.Hi, func(_ rel.Value, got []storage.RowID) bool {
			ids = append(ids, got...)
			return true
		})
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
// probe and its residual filter (n.Filter compiled), appending them to rows
// and their RowIDs to keep (aligned). Chain heads are resolved in one
// batched heap call: one heap lock, and one buffer-pool touch per run of ids
// on the same page; heads is scratch.
func indexFetch(ctx *Ctx, n *plan.IndexScan, filter *pred, ids []storage.RowID, heads []*storage.Version, keep []storage.RowID, rows []rel.Row) ([]*storage.Version, []storage.RowID, []rel.Row) {
	heads = n.Table.Heap.Heads(ids, heads[:0])
	for i, id := range ids {
		row, visible := ctx.Mgr.ReadHead(n.Table.ID, id, heads[i], ctx.Txn)
		if !visible || !indexRecheck(n, row) || !filter.keep(row) {
			continue
		}
		keep = append(keep, id)
		rows = append(rows, row)
	}
	return heads, keep, rows
}
