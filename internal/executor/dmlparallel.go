// Morsel-parallel DML: UPDATE and DELETE dispatch heap pages through the
// same page-range morsel source the read operators use (PR 4), running the
// whole statement pipeline — visibility, predicate, new-row computation, and
// the striped batch claim — inside each worker. Side effects that must match
// the serial path byte-for-byte (index postings, statistics notes) are
// buffered per page and replayed by the coordinator in morsel order after
// the workers join, so an index scan or stats estimate cannot tell the two
// paths apart. Claims themselves may interleave across workers, which is
// safe: a claim only stamps XMax and swaps the chain head, and commit
// ordering comes from the manager's atomic clock, not claim order.
package executor

import (
	"sync"
	"sync/atomic"

	"neurdb/internal/catalog"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// dmlPageRes is one page's buffered outcome: the claimed row ids, the old
// rows (for stats), and — for UPDATE — the replacement rows (for stats and
// index maintenance). Slices are freshly allocated by the worker; ownership
// transfers to the coordinator.
type dmlPageRes struct {
	ids  []storage.RowID
	olds []rel.Row
	news []rel.Row // nil for DELETE
}

// dmlParallel fans a DML scan out over the morsel dispatcher. set is nil for
// DELETE. It returns the number of rows written; on any worker error the
// statement's partial claims stay in the transaction write set and the
// caller aborts, exactly like the serial path's mid-statement conflicts.
func dmlParallel(ctx *Ctx, t *catalog.Table, set map[int]rel.Expr, where rel.Expr, workers int) (int, error) {
	ms := t.Heap.NewMorselSource(MorselPages)
	results := make([][]dmlPageRes, ms.Morsels())
	filter := compilePred(where)

	var (
		stopped  atomic.Bool
		errMu    sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
		stopped.Store(true)
	}

	fanOut(workers, func(int) {
		buf := make([]*storage.Version, storage.RowsPerPage)
		ids := make([]storage.RowID, 0, storage.RowsPerPage)
		rows := make([]rel.Row, 0, storage.RowsPerPage)
		for !stopped.Load() {
			idx, lo, hi, ok := ms.Next()
			if !ok {
				return
			}
			var pages []dmlPageRes
			for pg := lo; pg < hi && !stopped.Load(); pg++ {
				ids = ids[:0]
				rows, _ = pageRows(ctx, t, pg, &filter, buf, rows[:0], &ids)
				if len(ids) == 0 {
					continue
				}
				res := dmlPageRes{
					ids:  append([]storage.RowID(nil), ids...),
					olds: append([]rel.Row(nil), rows...),
				}
				var err error
				if res.news, err = claimPage(ctx, t, set, res.ids, res.olds, nil); err != nil {
					fail(err)
					return
				}
				pages = append(pages, res)
			}
			results[idx] = pages
		}
	})
	if firstErr != nil {
		return 0, firstErr
	}

	// Replay the buffered side effects in morsel (heap) order: index
	// postings and statistics notes land in exactly the sequence the serial
	// page loop would have produced them.
	total := 0
	for _, pages := range results {
		for _, p := range pages {
			noteWritten(t, p.ids, p.olds, p.news)
			total += len(p.ids)
		}
	}
	ctx.DMLParallelPages += ms.Pages()
	return total, nil
}
