// Package stats maintains per-table, per-column statistics: row counts,
// min/max, approximate distinct counts, and equi-depth histograms. ANALYZE
// rebuilds them; between two ANALYZEs, INSERT, UPDATE and DELETE keep the
// counts and bounds current, and every statement is planned on these live
// statistics. Snapshot freezes a copy for a planner that must see stale ones
// (the paper's Figure 8 drift experiment).
package stats

import (
	"math"
	"sort"
	"sync"

	"neurdb/internal/rel"
)

// HistogramBuckets is the number of equi-depth buckets per column.
const HistogramBuckets = 32

// ColumnStats summarizes one numeric (or numeric-coercible) column.
type ColumnStats struct {
	Count     int64
	NullCount int64
	Min, Max  float64
	Distinct  int64 // approximate NDV
	// Bounds are the equi-depth bucket upper bounds (len = buckets used).
	// Each bucket holds ~Count/len(Bounds) values.
	Bounds []float64
}

// TableStats holds statistics for all columns of a table.
type TableStats struct {
	mu       sync.RWMutex
	RowCount int64
	Cols     []ColumnStats
	// Version increments on every rebuild or incremental change batch, so
	// consumers can cheaply detect drift in the stats themselves.
	Version uint64
}

// NewTableStats creates empty statistics for arity columns.
func NewTableStats(arity int) *TableStats {
	return &TableStats{Cols: make([]ColumnStats, arity)}
}

// Snapshot returns a deep copy, used by planners that must keep planning on
// stale statistics (the PostgreSQL baseline under drift).
func (ts *TableStats) Snapshot() *TableStats {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	cp := &TableStats{RowCount: ts.RowCount, Version: ts.Version}
	cp.Cols = make([]ColumnStats, len(ts.Cols))
	for i, c := range ts.Cols {
		cc := c
		cc.Bounds = append([]float64(nil), c.Bounds...)
		cp.Cols[i] = cc
	}
	return cp
}

// maxDistinct caps a column's distinct count, and so the size of its TEXT map.
const maxDistinct = 1_000_000

// Builder recomputes a table's statistics from a full pass over its rows
// (ANALYZE). Add takes the rows a batch at a time and Finish installs the
// result, so no caller gathers the whole table: each batch is walked once
// per column while it is in cache, and only its column values are kept, so
// the caller may reuse the batch. Numbers count as distinct by their float
// value, from the sort the bounds need anyway; TEXT counts by its text,
// since AsFloat reads every non-numeric text as 0, and its AsFloat values
// join only the sort.
type Builder struct {
	ts   *TableStats
	hint int
	rows int64
	cols []colBuilder // one per column of the first row added
}

// colBuilder is one column's share of a Builder.
type colBuilder struct {
	nulls    int64
	nums     []float64
	texts    map[string]struct{}
	textVals []float64
}

// NewBuilder starts a rebuild of ts. hint is the expected row count, which
// sizes the column buffers.
func (ts *TableStats) NewBuilder(hint int) *Builder {
	return &Builder{ts: ts, hint: hint}
}

// Add folds a batch of rows into the build and returns b, so a one-batch
// rebuild reads ts.NewBuilder(len(rows)).Add(rows).Finish(). The first row
// added fixes the arity; a shorter row contributes only its columns.
func (b *Builder) Add(rows []rel.Row) *Builder {
	if len(rows) == 0 {
		return b
	}
	if b.cols == nil {
		b.cols = make([]colBuilder, len(rows[0]))
		for i := range b.cols {
			b.cols[i].nums = make([]float64, 0, max(b.hint, len(rows)))
		}
	}
	b.rows += int64(len(rows))
	for i := range b.cols {
		c := &b.cols[i]
		for _, row := range rows {
			if i >= len(row) {
				continue
			}
			v := row[i]
			switch {
			case v.IsNull():
				c.nulls++
			case v.Type() == rel.TypeText:
				if c.texts == nil {
					c.texts = make(map[string]struct{})
				}
				if len(c.texts) < maxDistinct {
					c.texts[v.String()] = struct{}{}
				}
				c.textVals = append(c.textVals, v.AsFloat())
			default:
				c.nums = append(c.nums, v.AsFloat())
			}
		}
	}
	return b
}

// Finish installs the statistics of the rows added. With none added, every
// column of ts is reset.
func (b *Builder) Finish() {
	arity := len(b.cols)
	if b.cols == nil {
		arity = len(b.ts.Cols)
	}
	cols := make([]ColumnStats, arity)
	for i, c := range b.cols {
		nums := c.nums
		sort.Float64s(nums)
		distinct := len(c.texts)
		for j, f := range nums {
			// NaN equals nothing, so each NaN counts once, and -0 is 0.
			if j == 0 || f != nums[j-1] {
				distinct++
			}
		}
		vals := nums
		if len(c.textVals) > 0 {
			vals = append(nums, c.textVals...)
			sort.Float64s(vals)
		}
		cols[i].NullCount = c.nulls
		cols[i].Count = int64(len(vals)) + c.nulls
		cols[i].Distinct = int64(min(distinct, maxDistinct))
		if len(vals) == 0 {
			continue
		}
		cols[i].Min = vals[0]
		cols[i].Max = vals[len(vals)-1]
		cols[i].Bounds = equiDepthBounds(vals, HistogramBuckets)
	}
	ts := b.ts
	ts.mu.Lock()
	ts.RowCount = b.rows
	ts.Cols = cols
	ts.Version++
	ts.mu.Unlock()
}

// equiDepthBounds computes bucket upper bounds over sorted values.
func equiDepthBounds(sorted []float64, buckets int) []float64 {
	if len(sorted) == 0 {
		return nil
	}
	if buckets > len(sorted) {
		buckets = len(sorted)
	}
	bounds := make([]float64, buckets)
	for b := 0; b < buckets; b++ {
		idx := (b + 1) * len(sorted) / buckets
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		} else if idx > 0 {
			idx--
		}
		bounds[b] = sorted[idx]
	}
	return bounds
}

// NoteInsertBatch folds a batch of inserted rows into the statistics under
// one lock acquisition and one Version bump (a Version tick marks a change
// batch, not a row).
func (ts *TableStats) NoteInsertBatch(rows []rel.Row) {
	if len(rows) == 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.Version++
	for _, row := range rows {
		ts.noteInsertLocked(row)
	}
}

func (ts *TableStats) noteInsertLocked(row rel.Row) {
	ts.RowCount++
	for i := 0; i < len(ts.Cols) && i < len(row); i++ {
		c := &ts.Cols[i]
		if row[i].IsNull() {
			c.NullCount++
			c.Count++
			continue
		}
		f := row[i].AsFloat()
		if c.Count == c.NullCount { // first non-null value
			c.Min, c.Max = f, f
		} else {
			if f < c.Min {
				c.Min = f
			}
			if f > c.Max {
				c.Max = f
			}
		}
		c.Count++
	}
}

// NoteDeleteBatch removes a batch of deleted rows' contributions under one
// lock acquisition and one Version bump (approximate: min, max and histogram
// are not shrunk — matching real systems, which only fix them on ANALYZE).
func (ts *TableStats) NoteDeleteBatch(rows []rel.Row) {
	if len(rows) == 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.Version++
	for _, row := range rows {
		ts.noteDeleteLocked(row)
	}
}

func (ts *TableStats) noteDeleteLocked(row rel.Row) {
	if ts.RowCount > 0 {
		ts.RowCount--
	}
	for i := 0; i < len(ts.Cols) && i < len(row); i++ {
		c := &ts.Cols[i]
		if c.Count > 0 {
			c.Count--
		}
		if row[i].IsNull() && c.NullCount > 0 {
			c.NullCount--
		}
	}
}

// NoteUpdateBatch folds a batch of updates (aligned old/new slices), each a
// delete plus an insert, under one lock acquisition and one Version bump.
func (ts *TableStats) NoteUpdateBatch(oldRows, newRows []rel.Row) {
	if len(oldRows) == 0 {
		return
	}
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.Version++
	for i, old := range oldRows {
		ts.noteDeleteLocked(old)
		ts.noteInsertLocked(newRows[i])
	}
}

// Rows returns the current row-count estimate.
func (ts *TableStats) Rows() int64 {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	return ts.RowCount
}

// Col returns a copy of column i's statistics.
func (ts *TableStats) Col(i int) ColumnStats {
	ts.mu.RLock()
	defer ts.mu.RUnlock()
	if i < 0 || i >= len(ts.Cols) {
		return ColumnStats{}
	}
	c := ts.Cols[i]
	c.Bounds = append([]float64(nil), c.Bounds...)
	return c
}

// SelectivityEq estimates the selectivity of "col = v".
func (ts *TableStats) SelectivityEq(col int, v float64) float64 {
	c := ts.Col(col)
	if c.Count == 0 || c.Distinct == 0 {
		return 0.1
	}
	if v < c.Min || v > c.Max {
		return 1.0 / float64(max64(c.Count, 1)) // likely absent
	}
	return 1.0 / float64(c.Distinct)
}

// SelectivityRange estimates the selectivity of lo <= col <= hi using the
// equi-depth histogram (open bounds use ±Inf).
func (ts *TableStats) SelectivityRange(col int, lo, hi float64) float64 {
	c := ts.Col(col)
	if c.Count == 0 {
		return 0.3
	}
	if len(c.Bounds) == 0 {
		// Uniformity fallback over [Min, Max].
		width := c.Max - c.Min
		if width <= 0 {
			if lo <= c.Min && c.Min <= hi {
				return 1
			}
			return 0
		}
		l := math.Max(lo, c.Min)
		h := math.Min(hi, c.Max)
		if h < l {
			return 0
		}
		return (h - l) / width
	}
	n := float64(len(c.Bounds))
	frac := (bucketPosition(c, hi, true) - bucketPosition(c, lo, false)) / n
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return frac
}

// bucketPosition returns the fractional bucket index of value v — roughly,
// how many buckets of mass lie below v. For an upper bound, v at or above
// Max covers all buckets; for a lower bound, v at or below Min covers none.
func bucketPosition(c ColumnStats, v float64, upper bool) float64 {
	n := float64(len(c.Bounds))
	if upper {
		if math.IsInf(v, 1) || v >= c.Max {
			return n
		}
		if v < c.Min {
			return 0
		}
	} else {
		if math.IsInf(v, -1) || v <= c.Min {
			return 0
		}
		if v > c.Max {
			return n
		}
	}
	lo := c.Min
	for i, ub := range c.Bounds {
		if v <= ub {
			width := ub - lo
			if width <= 0 {
				return float64(i + 1)
			}
			return float64(i) + (v-lo)/width
		}
		lo = ub
	}
	return n
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
