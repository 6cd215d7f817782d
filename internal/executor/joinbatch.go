package executor

import (
	"math"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// joinOutput is the emission side the three batch joins share: each batch
// of the left (outer, probe) input is joined at once, its joined rows carved
// from a shared value slab (see emitJoined) into pending, which NextBatch
// drains across calls.
type joinOutput struct {
	left      BatchIter
	in        *rel.Batch // left-side input scratch
	pending   []rel.Row
	pendPos   int
	slab      []rel.Value
	exhausted bool
}

// joinOutputOf is a joinOutput over the left input.
func joinOutputOf(left BatchIter) joinOutput { return joinOutput{left: left, in: rel.NewBatch(0)} }

// next fills dst from pending, calling join with the next left batch's rows
// whenever pending runs dry; join appends their joined rows to pending.
func (j *joinOutput) next(dst *rel.Batch, join func(in []rel.Row)) (int, error) {
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
		j.pending, j.pendPos = j.pending[:0], 0
		join(j.in.Rows)
	}
	return dst.Len(), nil
}

func (j *joinOutput) Close() error { return j.left.Close() }

// joinSlabValues sizes the output-row arena: joined rows are carved from a
// shared value slab, so a join allocates once per slab instead of once per
// output row. Emitted rows keep referencing retired slabs, which stay alive
// for exactly as long as some consumer holds one of their rows.
const joinSlabValues = 4096

// nlJoinBatch is the batched nested-loop join: Open materializes the inner
// (right) side once, then every outer batch rescans it in a tight loop.
type nlJoinBatch struct {
	on        pred
	right     BatchIter
	rightRows []rel.Row
	joinOutput
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
	return j.next(dst, func(in []rel.Row) {
		for _, l := range in {
			for _, r := range j.rightRows {
				j.pending, j.slab = emitJoined(j.pending, j.slab, l, r, &j.on)
			}
		}
	})
}

// indexJoinBatch probes the inner table's index for each outer batch in one
// index.BTree.LookupBatch call — one index-lock acquisition per batch
// instead of per row — then resolves visibility once per RowID of each key's
// posting list.
type indexJoinBatch struct {
	ctx              *Ctx
	node             *plan.IndexJoin
	filter, residual pred

	keys    []rel.Value // non-null probe keys of the current batch
	keyRows []int       // aligned index into the batch for each key
	ids     []storage.RowID
	offs    []int
	heads   []*storage.Version // chain heads of one key's postings
	joinOutput
}

func (j *indexJoinBatch) Open() error { return j.left.Open() }

func (j *indexJoinBatch) NextBatch(dst *rel.Batch) (int, error) {
	return j.next(dst, func(in []rel.Row) {
		j.keys, j.keyRows = j.keys[:0], j.keyRows[:0]
		for i, l := range in {
			key := l[j.node.LKey]
			if key.IsNull() {
				continue
			}
			j.keys = append(j.keys, key)
			j.keyRows = append(j.keyRows, i)
		}
		j.ids, j.offs = j.node.Index.BT.LookupBatch(j.keys, j.ids[:0], j.offs[:0])
		start := 0
		for k, key := range j.keys {
			l := in[j.keyRows[k]]
			// Each RowID once per probe key (see indexScanIDs): a row whose
			// key moved away and back has two postings under it, and both
			// would pass the recheck. The segment is ours to sort in place.
			ids := heapOrder(j.ids[start:j.offs[k]], true)
			j.heads = j.node.Table.Heap.Heads(ids, j.heads[:0])
			for _, head := range j.heads {
				row, visible := j.ctx.Mgr.ReadHead(head, j.ctx.Txn)
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
	})
}

// --- the hash join's build table ---

// keyTable is an open-addressing hash table from a 64-bit key to an int32
// entry: the hash join's build table and the aggregate's numeric group slots
// both use it. Entry 0 marks a free slot, so callers store index+1. A key's
// home slot is its Fibonacci hash; collisions probe linearly, and the table
// doubles before it is three quarters full.
type keyTable struct {
	slots []keySlot
	shift uint // 64 - log2(len(slots))
	n     int  // occupied slots
}

type keySlot struct {
	key   uint64
	entry int32
}

// newKeyTable returns a table that holds n keys without growing.
func newKeyTable(n int) keyTable {
	size, shift := 8, uint(61)
	for size*3 < n*4 {
		size, shift = size*2, shift-1
	}
	return keyTable{slots: make([]keySlot, size), shift: shift}
}

func (t *keyTable) home(key uint64) int { return int(key * 0x9e3779b97f4a7c15 >> t.shift) }

// get returns key's entry, 0 when key is absent.
func (t *keyTable) get(key uint64) int32 {
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		if s := &t.slots[i]; s.entry == 0 || s.key == key {
			return s.entry
		}
	}
}

// ref returns key's entry for the caller to set, claiming a free slot (entry
// 0, which the caller must overwrite) when key is absent. The pointer is
// valid until the next ref.
func (t *keyTable) ref(key uint64) *int32 {
	if (t.n+1)*4 > len(t.slots)*3 {
		old := t.slots
		t.slots, t.shift, t.n = make([]keySlot, 2*len(old)), t.shift-1, 0
		for _, s := range old {
			if s.entry != 0 {
				*t.ref(s.key) = s.entry
			}
		}
	}
	mask := len(t.slots) - 1
	for i := t.home(key); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.entry == 0 {
			s.key = key
			t.n++
			return &s.entry
		}
		if s.key == key {
			return &s.entry
		}
	}
}

// joinTable is a hash join's build side: the build rows in build (heap)
// order, a keyTable from each key to the first row holding it, and a next
// chain through each key's rows in build order. A numeric key (INT, DOUBLE,
// BOOL) is keyed by its numKey's float64 bits, so numerically equal keys
// share a chain; an INT float64 cannot hold by a NaN pattern hashed from
// its value (wideIntKey), which no number's numKey has. A TEXT key is keyed
// by Value.Hash. seek rechecks every candidate with = (rel.Compare), since
// keys of distinct values may collide. A NULL key is never linked: it joins
// nothing.
type joinTable struct {
	col   int // key column of the build rows
	rows  []rel.Row
	next  []int32 // next row (index+1) under the same table key; 0 ends the chain
	heads keyTable
}

// tableKey is v's key in a joinTable.
func tableKey(v *rel.Value) uint64 {
	if !numericType(v.Type()) {
		return v.Hash()
	}
	if f, ok := numKey(v); ok {
		return math.Float64bits(f)
	}
	return wideIntKey(int64(v.Bits()))
}

// wideIntKey is the table key of an INT that float64 cannot hold: a
// negative NaN whose 52-bit payload is a hash of i. Such INTs may share a
// key with each other or with a NaN, never with another number.
func wideIntKey(i int64) uint64 {
	const negNaN = 0xfff0_0000_0000_0001 // sign, exponent and a nonzero payload
	return negNaN | uint64(i)*0x9e3779b97f4a7c15>>12
}

func newJoinTable(rows []rel.Row, col int) *joinTable {
	t := &joinTable{col: col, rows: rows, next: make([]int32, len(rows)), heads: newKeyTable(len(rows))}
	// Linking back to front leaves every chain in build order.
	for i := len(rows) - 1; i >= 0; i-- {
		if key := rows[i][col]; !key.IsNull() {
			head := t.heads.ref(tableKey(&key))
			t.next[i], *head = *head, int32(i+1)
		}
	}
	return t
}

// seek returns the first row, from chain entry e on, whose key equals the
// probe key (as index+1; 0 when none). A chain holds one table key, which
// distinct values may share, so each candidate is rechecked: a build key of
// the probe's type and payload is equal at once, any other by rel.Equal.
func (t *joinTable) seek(e int32, key *rel.Value) int32 {
	for ; e != 0; e = t.next[e-1] {
		bk := &t.rows[e-1][t.col]
		samePayload := bk.Type() == key.Type() && bk.Bits() == key.Bits() && key.Type() != rel.TypeText
		if samePayload || rel.Equal(*bk, *key) {
			return e
		}
	}
	return 0
}

// first returns the first build row that joins a probe row with this key,
// 0 when none does; after(e, key) the next one. Matches come in build order.
func (t *joinTable) first(key *rel.Value) int32 {
	if key.IsNull() {
		return 0
	}
	return t.seek(t.heads.get(tableKey(key)), key)
}

func (t *joinTable) after(e int32, key *rel.Value) int32 { return t.seek(t.next[e-1], key) }
