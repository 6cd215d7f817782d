package executor

import (
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// nlJoinBatch is the batched nested-loop join: Open materializes the inner
// (right) side once, then every outer batch rescans it in a tight loop —
// joined rows are carved from a shared value slab and carried in pending
// across NextBatch calls, exactly like the hash join's emission path. With
// this, no relational operator is left on the row-iterator adapter.
type nlJoinBatch struct {
	on          pred
	left, right BatchIter
	rightRows   []rel.Row
	in          *rel.Batch // outer-side input scratch
	pending     []rel.Row
	pendPos     int
	slab        []rel.Value
	exhausted   bool
}

func (j *nlJoinBatch) Open() error {
	if err := j.right.Open(); err != nil {
		return err
	}
	defer j.right.Close()
	build := rel.NewBatch(BatchSize)
	for {
		n, err := j.right.NextBatch(build)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		j.rightRows = append(j.rightRows, build.Rows...)
	}
	return j.left.Open()
}

// emitJoined appends l⋈r to pending via the slab, applying cond (which sees
// the concatenated row). Every join emits its rows through it.
func emitJoined(pending []rel.Row, slab []rel.Value, l, r rel.Row, cond *pred) ([]rel.Row, []rel.Value) {
	width := len(l) + len(r)
	if cap(slab)-len(slab) < width {
		n := joinSlabValues
		if n < width {
			n = width
		}
		slab = make([]rel.Value, 0, n)
	}
	start := len(slab)
	slab = append(slab, l...)
	slab = append(slab, r...)
	joined := rel.Row(slab[start:len(slab):len(slab)])
	if !cond.keep(joined) {
		return pending, slab[:start]
	}
	return append(pending, joined), slab
}

func (j *nlJoinBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for dst.Len() < BatchSize {
		if j.pendPos < len(j.pending) {
			dst.Append(j.pending[j.pendPos])
			j.pendPos++
			continue
		}
		if j.exhausted {
			break
		}
		n, err := j.left.NextBatch(j.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			j.exhausted = true
			break
		}
		j.pending = j.pending[:0]
		j.pendPos = 0
		for _, l := range j.in.Rows {
			for _, r := range j.rightRows {
				j.pending, j.slab = emitJoined(j.pending, j.slab, l, r, &j.on)
			}
		}
	}
	return dst.Len(), nil
}

func (j *nlJoinBatch) Close() error { return j.left.Close() }

// indexJoinBatch probes the inner table's index for each outer batch in one
// catalog.Index.LookupBatch call — one index-lock acquisition per batch
// instead of per row — then resolves visibility once per RowID of each key's
// posting list and emits joined rows through the shared slab/pending path.
type indexJoinBatch struct {
	ctx              *Ctx
	node             *plan.IndexJoin
	filter, residual pred
	left             BatchIter

	in      *rel.Batch
	keys    []rel.Value // non-null probe keys of the current batch
	keyRows []int       // aligned index into in.Rows for each key
	ids     []storage.RowID
	offs    []int
	heads   []*storage.Version // chain heads of one key's postings

	pending   []rel.Row
	pendPos   int
	slab      []rel.Value
	exhausted bool
}

func (j *indexJoinBatch) Open() error { return j.left.Open() }

func (j *indexJoinBatch) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for dst.Len() < BatchSize {
		if j.pendPos < len(j.pending) {
			dst.Append(j.pending[j.pendPos])
			j.pendPos++
			continue
		}
		if j.exhausted {
			break
		}
		n, err := j.left.NextBatch(j.in)
		if err != nil {
			return 0, err
		}
		if n == 0 {
			j.exhausted = true
			break
		}
		j.keys, j.keyRows = j.keys[:0], j.keyRows[:0]
		for i, l := range j.in.Rows {
			key := l[j.node.LKey]
			if key.IsNull() {
				continue
			}
			j.keys = append(j.keys, key)
			j.keyRows = append(j.keyRows, i)
		}
		j.ids, j.offs = j.node.Index.LookupBatch(j.keys, j.ids[:0], j.offs[:0])
		j.pending = j.pending[:0]
		j.pendPos = 0
		start := 0
		for k, key := range j.keys {
			l := j.in.Rows[j.keyRows[k]]
			// Each RowID once per probe key (see indexScanIDs): a row whose
			// key moved away and back has two postings under it, and both
			// would pass the recheck. The segment is ours to sort in place.
			ids := heapOrder(j.ids[start:j.offs[k]], true)
			j.heads = j.node.Table.Heap.Heads(ids, j.heads[:0])
			for i, id := range ids {
				row, visible := j.ctx.Mgr.ReadHead(j.node.Table.ID, id, j.heads[i], j.ctx.Txn)
				if !visible {
					continue
				}
				// Recheck the key (stale postings) and inner filter.
				if !rel.Equal(row[j.node.Index.Col], key) {
					continue
				}
				if !j.filter.keep(row) {
					continue
				}
				j.pending, j.slab = emitJoined(j.pending, j.slab, l, row, &j.residual)
			}
			start = j.offs[k]
		}
	}
	return dst.Len(), nil
}

func (j *indexJoinBatch) Close() error { return j.left.Close() }
