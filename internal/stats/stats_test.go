package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"neurdb/internal/rel"
)

func uniformRows(n int, arity int, r *rand.Rand) []rel.Row {
	rows := make([]rel.Row, n)
	for i := range rows {
		row := make(rel.Row, arity)
		for j := range row {
			row[j] = rel.Float(r.Float64() * 100)
		}
		rows[i] = row
	}
	return rows
}

func TestRebuildBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	rows := uniformRows(10_000, 2, r)
	ts := NewTableStats(2)
	ts.Rebuild(rows)
	if ts.Rows() != 10_000 {
		t.Fatalf("rows = %d", ts.Rows())
	}
	c := ts.Col(0)
	if c.Min < 0 || c.Max > 100 || c.Min > 1 || c.Max < 99 {
		t.Fatalf("min/max = %v/%v", c.Min, c.Max)
	}
	if len(c.Bounds) != HistogramBuckets {
		t.Fatalf("buckets = %d", len(c.Bounds))
	}
	if c.Distinct < 9000 {
		t.Fatalf("ndv = %d", c.Distinct)
	}
}

func TestRebuildWithNulls(t *testing.T) {
	rows := []rel.Row{
		{rel.Int(1)}, {rel.Null()}, {rel.Int(3)}, {rel.Null()}, {rel.Int(5)},
	}
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	c := ts.Col(0)
	if c.NullCount != 2 || c.Count != 5 {
		t.Fatalf("null=%d count=%d", c.NullCount, c.Count)
	}
	if c.Min != 1 || c.Max != 5 || c.Distinct != 3 {
		t.Fatalf("col stats: %+v", c)
	}
}

func TestRebuildEmpty(t *testing.T) {
	ts := NewTableStats(2)
	ts.Rebuild(nil)
	if ts.Rows() != 0 {
		t.Fatal("empty rebuild rows")
	}
	if got := ts.SelectivityEq(0, 5); got != 0.1 {
		t.Fatalf("empty eq selectivity = %v", got)
	}
	if got := ts.SelectivityRange(0, 0, 1); got != 0.3 {
		t.Fatalf("empty range selectivity = %v", got)
	}
	// Out-of-range column index.
	if c := ts.Col(99); c.Count != 0 {
		t.Fatal("out-of-range col should be zero")
	}
}

func TestSelectivityEq(t *testing.T) {
	rows := make([]rel.Row, 1000)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i % 10))} // 10 distinct values
	}
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	if got := ts.SelectivityEq(0, 5); math.Abs(got-0.1) > 1e-9 {
		t.Fatalf("eq selectivity = %v, want 0.1", got)
	}
	// Out-of-range probe.
	if got := ts.SelectivityEq(0, 999); got > 0.01 {
		t.Fatalf("oor selectivity = %v", got)
	}
}

func TestSelectivityRangeUniform(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	rows := uniformRows(20_000, 1, r)
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	// Uniform[0,100]: P(25 <= x <= 75) ≈ 0.5
	got := ts.SelectivityRange(0, 25, 75)
	if math.Abs(got-0.5) > 0.05 {
		t.Fatalf("range selectivity = %v, want ~0.5", got)
	}
	// Open bounds.
	if got := ts.SelectivityRange(0, math.Inf(-1), math.Inf(1)); math.Abs(got-1) > 1e-9 {
		t.Fatalf("full range = %v", got)
	}
	if got := ts.SelectivityRange(0, math.Inf(-1), 50); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("half range = %v", got)
	}
	// Empty range.
	if got := ts.SelectivityRange(0, 70, 30); got != 0 {
		t.Fatalf("inverted range = %v", got)
	}
}

func TestSelectivityRangeSkewed(t *testing.T) {
	// 90% of mass at small values: equi-depth histogram should capture it.
	rows := make([]rel.Row, 10_000)
	r := rand.New(rand.NewSource(3))
	for i := range rows {
		if i < 9000 {
			rows[i] = rel.Row{rel.Float(r.Float64())} // [0,1)
		} else {
			rows[i] = rel.Row{rel.Float(100 + r.Float64()*900)} // [100,1000)
		}
	}
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	got := ts.SelectivityRange(0, 0, 1.5)
	if math.Abs(got-0.9) > 0.08 {
		t.Fatalf("skewed selectivity = %v, want ~0.9", got)
	}
	// A uniformity assumption would have said ~0.0015 — the histogram must
	// beat it by orders of magnitude.
	if got < 0.5 {
		t.Fatal("histogram failed to capture skew")
	}
}

func TestIncrementalMaintenance(t *testing.T) {
	ts := NewTableStats(1)
	ts.Rebuild([]rel.Row{{rel.Int(10)}, {rel.Int(20)}})
	ts.NoteInsertBatch([]rel.Row{{rel.Int(30)}})
	if ts.Rows() != 3 {
		t.Fatalf("rows after insert = %d", ts.Rows())
	}
	c := ts.Col(0)
	if c.Max != 30 || c.Min != 10 {
		t.Fatalf("minmax after insert: %v %v", c.Min, c.Max)
	}
	ts.NoteInsertBatch([]rel.Row{{rel.Int(5)}})
	if ts.Col(0).Min != 5 {
		t.Fatal("min not updated")
	}
	ts.NoteDeleteBatch([]rel.Row{{rel.Int(30)}})
	if ts.Rows() != 3 {
		t.Fatalf("rows after delete = %d", ts.Rows())
	}
	ts.NoteUpdateBatch([]rel.Row{{rel.Int(5)}}, []rel.Row{{rel.Int(50)}})
	if ts.Col(0).Max != 50 {
		t.Fatal("update not folded")
	}
	// Null insert/delete paths.
	ts.NoteInsertBatch([]rel.Row{{rel.Null()}})
	if ts.Col(0).NullCount != 1 {
		t.Fatal("null insert not counted")
	}
	ts.NoteDeleteBatch([]rel.Row{{rel.Null()}})
	if ts.Col(0).NullCount != 0 {
		t.Fatal("null delete not counted")
	}
	// First non-null insert into an empty stats object initializes min/max.
	ts2 := NewTableStats(1)
	ts2.NoteInsertBatch([]rel.Row{{rel.Null()}})
	ts2.NoteInsertBatch([]rel.Row{{rel.Int(-7)}})
	if c := ts2.Col(0); c.Min != -7 || c.Max != -7 {
		t.Fatalf("first value minmax: %+v", c)
	}
}

func TestVersionIncrements(t *testing.T) {
	ts := NewTableStats(1)
	v0 := ts.Version
	ts.Rebuild([]rel.Row{{rel.Int(1)}})
	ts.NoteInsertBatch([]rel.Row{{rel.Int(2)}})
	if ts.Version <= v0+1 {
		t.Fatal("version not incrementing")
	}
}

func TestSnapshotIsIsolated(t *testing.T) {
	ts := NewTableStats(1)
	ts.Rebuild([]rel.Row{{rel.Int(1)}, {rel.Int(2)}})
	snap := ts.Snapshot()
	ts.NoteInsertBatch([]rel.Row{{rel.Int(100)}})
	if snap.Rows() != 2 {
		t.Fatal("snapshot affected by later insert")
	}
	if snap.Col(0).Max == 100 {
		t.Fatal("snapshot shares column state")
	}
}

func TestEquiDepthBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.NormFloat64() * 10
		}
		rows := make([]rel.Row, n)
		for i, v := range vals {
			rows[i] = rel.Row{rel.Float(v)}
		}
		ts := NewTableStats(1)
		ts.Rebuild(rows)
		c := ts.Col(0)
		// Bounds are sorted and last bound is the max.
		for i := 1; i < len(c.Bounds); i++ {
			if c.Bounds[i] < c.Bounds[i-1] {
				return false
			}
		}
		if len(c.Bounds) > 0 && c.Bounds[len(c.Bounds)-1] != c.Max {
			return false
		}
		// Selectivity over the full range is 1.
		sel := ts.SelectivityRange(0, c.Min, c.Max)
		return sel > 0.9 && sel <= 1.0001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectivityMonotoneProperty(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	rows := uniformRows(5000, 1, r)
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	prev := 0.0
	for hi := 0.0; hi <= 100; hi += 5 {
		s := ts.SelectivityRange(0, 0, hi)
		if s+1e-9 < prev {
			t.Fatalf("selectivity not monotone at hi=%v: %v < %v", hi, s, prev)
		}
		prev = s
	}
}

func TestConstantColumn(t *testing.T) {
	rows := make([]rel.Row, 100)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(7)}
	}
	ts := NewTableStats(1)
	ts.Rebuild(rows)
	if got := ts.SelectivityRange(0, 7, 7); got < 0.9 {
		t.Fatalf("constant column point-range selectivity = %v", got)
	}
	if got := ts.SelectivityRange(0, 8, 9); got > 0.1 {
		t.Fatalf("constant column miss selectivity = %v", got)
	}
}

// TestBatchNotesMatchPerRowNotes: a page-sized note must leave statistics
// identical to the same rows noted one per batch (modulo Version, which
// ticks once per batch).
func TestBatchNotesMatchPerRowNotes(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	mkRow := func(i int) rel.Row {
		v := rel.Float(r.Float64() * 50)
		if i%7 == 0 {
			v = rel.Null()
		}
		return rel.Row{rel.Int(int64(i)), v}
	}
	var ins []rel.Row
	for i := 0; i < 500; i++ {
		ins = append(ins, mkRow(i))
	}
	var olds, news []rel.Row
	for i := 0; i < 200; i++ {
		olds = append(olds, ins[i])
		news = append(news, rel.Row{ins[i][0], rel.Float(999)})
	}

	a, b := NewTableStats(2), NewTableStats(2)
	a.NoteInsertBatch(ins)
	for _, row := range ins {
		b.NoteInsertBatch([]rel.Row{row})
	}
	a.NoteUpdateBatch(olds, news)
	for i := range olds {
		b.NoteUpdateBatch([]rel.Row{olds[i]}, []rel.Row{news[i]})
	}
	a.NoteDeleteBatch(ins[300:400])
	for _, row := range ins[300:400] {
		b.NoteDeleteBatch([]rel.Row{row})
	}

	if a.Rows() != b.Rows() {
		t.Fatalf("row counts diverge: batch %d per-row %d", a.Rows(), b.Rows())
	}
	for i := 0; i < 2; i++ {
		ca, cb := a.Col(i), b.Col(i)
		if ca.Count != cb.Count || ca.NullCount != cb.NullCount ||
			ca.Min != cb.Min || ca.Max != cb.Max {
			t.Fatalf("col %d diverges: batch %+v per-row %+v", i, ca, cb)
		}
	}
	// One Version tick per batch: 3 batches on a, 800 one-row batches on b.
	if a.Version != 3 {
		t.Fatalf("batch Version = %d, want 3", a.Version)
	}
}

// TestBatchNotesEmptyAreNoOps: empty batches must not bump Version.
func TestBatchNotesEmptyAreNoOps(t *testing.T) {
	ts := NewTableStats(1)
	ts.NoteInsertBatch(nil)
	ts.NoteDeleteBatch(nil)
	ts.NoteUpdateBatch(nil, nil)
	if ts.Version != 0 || ts.Rows() != 0 {
		t.Fatalf("empty batch mutated stats: v=%d rows=%d", ts.Version, ts.Rows())
	}
}
