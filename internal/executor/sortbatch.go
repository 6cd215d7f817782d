package executor

import (
	"container/heap"
	"sort"

	"neurdb/internal/plan"
	"neurdb/internal/rel"
)

// sorter orders rows by a Sort node's keys, ties broken on each row's
// heap-order sequence, which makes the order total and equal to a stable
// sort's. With a limit it is a top-k: only the first limit rows of that
// order are kept. The serial sortBatch fills one sortRun; parallelSort gives
// each worker its own and merges them.
type sorter struct {
	keys  []plan.SortKey
	limit int64 // > 0: keep the first limit rows (a LIMIT over the sort)
}

// sortRun is one share of a sort's input: rows with their columnar key
// values and heap-order sequences, and idx, an index permutation over them.
// Once a limited run is full, idx is a heap with the row that sorts last on
// top, and spare is the position a candidate row is written to.
type sortRun struct {
	rows  []rel.Row
	keys  [][]rel.Value // [key][row], each key evaluated once per row
	seqs  []uint64
	idx   []int32
	spare int32
}

// less orders (run a, position ai) against (run b, position bi) by the sort
// keys with the heap-sequence tie break.
func (s *sorter) less(a *sortRun, ai int32, b *sortRun, bi int32) bool {
	for k := range s.keys {
		c := rel.Compare(a.keys[k][ai], b.keys[k][bi])
		if c == 0 {
			continue
		}
		if s.keys[k].Desc {
			return c > 0
		}
		return c < 0
	}
	return a.seqs[ai] < b.seqs[bi]
}

func (s *sorter) newRun() *sortRun { return &sortRun{keys: make([][]rel.Value, len(s.keys))} }

// put writes row at position p of run, appending when p is the run's length.
func (s *sorter) put(run *sortRun, p int32, row rel.Row, seq uint64) {
	if int(p) == len(run.rows) {
		run.rows, run.seqs = append(run.rows, row), append(run.seqs, seq)
		for k := range s.keys {
			run.keys[k] = append(run.keys[k], s.keys[k].E.Eval(row))
		}
		return
	}
	run.rows[p], run.seqs[p] = row, seq
	for k := range s.keys {
		run.keys[k][p] = s.keys[k].E.Eval(row)
	}
}

// add puts row, at heap-order sequence seq, into run. A limited run keeps
// at most limit rows as a bounded heap: once full, a row enters only by
// sorting before the heap's last row, which it replaces.
func (s *sorter) add(run *sortRun, row rel.Row, seq uint64) {
	if s.limit <= 0 || int64(len(run.idx)) < s.limit {
		p := int32(len(run.rows))
		s.put(run, p, row, seq)
		run.idx = append(run.idx, p)
		if int64(len(run.idx)) == s.limit {
			heap.Init(lastOnTop{s, run})
			run.spare = p + 1
		}
		return
	}
	s.put(run, run.spare, row, seq)
	if s.less(run, run.spare, run, run.idx[0]) {
		run.idx[0], run.spare = run.spare, run.idx[0]
		heap.Fix(lastOnTop{s, run}, 0)
	}
}

// lastOnTop is a full limited run's idx as a heap whose root sorts last.
// The heap is only ever initialized and fixed, never pushed or popped.
type lastOnTop struct {
	s   *sorter
	run *sortRun
}

func (h lastOnTop) Len() int           { return len(h.run.idx) }
func (h lastOnTop) Less(i, j int) bool { return h.s.less(h.run, h.run.idx[j], h.run, h.run.idx[i]) }
func (h lastOnTop) Swap(i, j int)      { h.run.idx[i], h.run.idx[j] = h.run.idx[j], h.run.idx[i] }
func (h lastOnTop) Push(any)           { panic("unused") }
func (h lastOnTop) Pop() any           { panic("unused") }

// sortIdx sorts run's idx. The seq tie break makes the order total, so an
// unstable sort is deterministic here.
func (s *sorter) sortIdx(run *sortRun) {
	sort.Slice(run.idx, func(i, j int) bool { return s.less(run, run.idx[i], run, run.idx[j]) })
}

// mergeRuns merges two sorted runs, up to the limit, into one whose idx is
// the identity (rows, keys, and seqs are laid out in sorted order), so
// merged runs compose with further merges and with sorted.
func (s *sorter) mergeRuns(a, b *sortRun) *sortRun {
	n := len(a.idx) + len(b.idx)
	if s.limit > 0 {
		n = min(n, int(s.limit))
	}
	out := &sortRun{rows: make([]rel.Row, 0, n), seqs: make([]uint64, 0, n), keys: make([][]rel.Value, len(s.keys)), idx: make([]int32, n)}
	for k := range out.keys {
		out.keys[k] = make([]rel.Value, 0, n)
	}
	ai, bi := 0, 0
	for i := range out.idx {
		r, p := a, &ai
		if ai == len(a.idx) || bi < len(b.idx) && s.less(b, b.idx[bi], a, a.idx[ai]) {
			r, p = b, &bi
		}
		q := r.idx[*p]
		*p++
		out.rows, out.seqs = append(out.rows, r.rows[q]), append(out.seqs, r.seqs[q])
		for k := range out.keys {
			out.keys[k] = append(out.keys[k], r.keys[k][q])
		}
		out.idx[i] = int32(i)
	}
	return out
}

// sorted is a sorted run's rows in order.
func (s *sorter) sorted(run *sortRun) []rel.Row {
	out := make([]rel.Row, len(run.idx))
	for i, p := range run.idx {
		out[i] = run.rows[p]
	}
	return out
}

// sortBatch is the serial vectorized sort: Open feeds the child's rows to
// one sortRun — each sort-key expression evaluated once per row into
// columnar key arrays, an index permutation sorted over them, rows never
// moved — and NextBatch re-emits them in order.
type sortBatch struct {
	sorter
	child BatchIter
	materialized
}

func (s *sortBatch) Open() error {
	if err := s.child.Open(); err != nil {
		return err
	}
	defer s.child.Close()
	run := s.newRun()
	in := rel.NewBatch(BatchSize)
	seq := uint64(0)
	for {
		n, err := s.child.NextBatch(in)
		if err != nil {
			return err
		}
		if n == 0 {
			break
		}
		for _, row := range in.Rows {
			s.add(run, row, seq)
			seq++
		}
	}
	s.sortIdx(run)
	s.out = s.sorted(run)
	return nil
}

// limitBatch caps the stream at n rows by slicing batches: full batches
// pass through untouched, the final batch is truncated in place, and once
// the limit is reached the child is not pulled again. LIMIT 0 never opens
// its child, so it reads nothing.
type limitBatch struct {
	n     int64
	child BatchIter
	seen  int64
}

func (l *limitBatch) Open() error {
	if l.n <= 0 {
		return nil
	}
	return l.child.Open()
}

func (l *limitBatch) NextBatch(dst *rel.Batch) (int, error) {
	if l.seen >= l.n {
		dst.Reset()
		return 0, nil
	}
	cnt, err := l.child.NextBatch(dst)
	if err != nil || cnt == 0 {
		return 0, err
	}
	if rem := l.n - l.seen; int64(cnt) > rem {
		dst.Truncate(int(rem))
		cnt = int(rem)
	}
	l.seen += int64(cnt)
	return cnt, nil
}

func (l *limitBatch) Close() error {
	if l.n <= 0 {
		return nil
	}
	return l.child.Close()
}

// materialized is the output side of an operator that computes all its
// rows in Open (aggregation, sort): NextBatch hands them out batch by batch.
type materialized struct {
	out []rel.Row
	pos int
}

func (m *materialized) NextBatch(dst *rel.Batch) (int, error) {
	dst.Reset()
	for m.pos < len(m.out) && dst.Len() < BatchSize {
		dst.Append(m.out[m.pos])
		m.pos++
	}
	return dst.Len(), nil
}

func (m *materialized) Close() error { return nil }
