package client_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"neurdb/client"
)

// wireRows is the size of the key-value table the round-trip measurements
// read: large enough, once analyzed, that the optimizer takes the primary-key
// index for the point and range statements.
const wireRows = 5000

// wireFixture is one client connection to an in-process server over
// loopback, with the statements of the four measured round trips prepared.
type wireFixture struct {
	c                      *client.Conn
	point, rangeSel, write *client.Stmt
	adhoc                  []string // ad-hoc point texts, cycled
	key                    int
}

func newWireFixture(tb testing.TB) *wireFixture {
	tb.Helper()
	ndb, addr := startServer(tb)
	if _, err := ndb.Exec(`CREATE TABLE kv (id INT PRIMARY KEY, grp INT, val DOUBLE)`); err != nil {
		tb.Fatal(err)
	}
	var sb strings.Builder
	sb.WriteString(`INSERT INTO kv VALUES `)
	for i := 0; i < wireRows; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d,%d.5)", i, i%97, i)
	}
	for _, s := range []string{sb.String(), `ANALYZE kv`} {
		if _, err := ndb.Exec(s); err != nil {
			tb.Fatal(err)
		}
	}
	c, err := client.Connect(addr)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	f := &wireFixture{c: c}
	for _, p := range []struct {
		dst **client.Stmt
		sql string
	}{
		{&f.point, `SELECT val FROM kv WHERE id = ?`},
		{&f.rangeSel, `SELECT id, val FROM kv WHERE id >= ? AND id < ?`},
		{&f.write, `UPDATE kv SET val = ? WHERE id = ?`},
	} {
		if *p.dst, err = c.Prepare(p.sql); err != nil {
			tb.Fatal(err)
		}
	}
	for k := 0; k < 64; k++ {
		f.adhoc = append(f.adhoc, fmt.Sprintf(`SELECT val FROM kv WHERE id = %d`, k*71))
	}
	return f
}

// next cycles the key so successive round trips touch different rows.
func (f *wireFixture) next() int {
	f.key = (f.key + 37) % (wireRows - 50)
	return f.key
}

func (f *wireFixture) pointSelect(tb testing.TB) {
	key := f.next()
	rows, err := f.point.Query(key)
	if err != nil {
		tb.Fatal(err)
	}
	var val float64
	if !rows.Next() {
		tb.Fatalf("point %d: no row (%v)", key, rows.Err())
	}
	if err := rows.Scan(&val); err != nil {
		tb.Fatal(err)
	}
	if rows.Next() || rows.Close() != nil || val < float64(key) {
		tb.Fatalf("point %d: val %v, err %v", key, val, rows.Err())
	}
}

func (f *wireFixture) range50(tb testing.TB) {
	lo := f.next()
	rows, err := f.rangeSel.Query(lo, lo+50)
	if err != nil {
		tb.Fatal(err)
	}
	n := 0
	for rows.Next() {
		var id int
		var val float64
		if err := rows.Scan(&id, &val); err != nil {
			tb.Fatal(err)
		}
		n++
	}
	if err := rows.Close(); err != nil || n != 50 {
		tb.Fatalf("range [%d,%d): %d rows, err %v", lo, lo+50, n, err)
	}
}

func (f *wireFixture) adhocPoint(tb testing.TB) {
	rows, err := f.c.Query(f.adhoc[f.next()%len(f.adhoc)])
	if err != nil {
		tb.Fatal(err)
	}
	var val float64
	if !rows.Next() {
		tb.Fatalf("ad-hoc point: no row (%v)", rows.Err())
	}
	if err := rows.Scan(&val); err != nil {
		tb.Fatal(err)
	}
	if rows.Next() || rows.Close() != nil {
		tb.Fatalf("ad-hoc point: %v", rows.Err())
	}
}

func (f *wireFixture) pointUpdate(tb testing.TB) {
	key := f.next()
	res, err := f.write.Exec(float64(key)+0.5, key)
	if err != nil {
		tb.Fatal(err)
	}
	if res.Affected != 1 {
		tb.Fatalf("update %d affected %d rows", key, res.Affected)
	}
}

// perRun measures a round trip's steady-state cost in the whole process —
// client, loopback server and engine together — as allocations (through
// testing.AllocsPerRun) and heap bytes per run.
func perRun(tb testing.TB, runs int, fn func()) (allocs, bytes float64) {
	for i := 0; i < 50; i++ { // warm the plan cache, buffers and pools
		fn()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, fn)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one extra warm-up call before it measures.
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / float64(runs+1)
}

// TestWireRoundTripAllocs pins what one steady-state round trip allocates,
// counted across client, loopback server and engine. The ceilings sit a
// little above the measured values, so a change that puts a per-message or
// per-row allocation back on the read path fails here.
//
// Measured per round trip (allocs, bytes; amd64): before the
// per-connection wire buffers, reusing decoders, slab-carved projections and
// record-nothing read-only commits; after them; since the executor binds
// parameters as it compiles each operator instead of copying the cached plan
// per execution; and since a rel.Value is 16 bytes instead of 32:
//
//	prepared point SELECT      51,  8,543 B  ->  18,  1,144 B  ->  15,  1,104 B  ->  15,    992 B
//	prepared 50-row range     283, 30,327 B  ->  46, 13,848 B  ->  42, 12,336 B  ->  42, 10,544 B
//	ad-hoc point SELECT        68,  9,768 B  ->  47,  2,888 B  ->  47,  3,048 B  ->  47,  2,933 B
//	prepared point UPDATE      53,  9,288 B  ->  25,  1,831 B  ->  22,  1,361 B  ->  22,  1,217 B
//
// The race detector adds a few dozen bytes to each, and -tags=invariants
// (stripeAssertAllocs) a few hundred to the UPDATE.
//
// Most of what is left is the engine's per-statement state: iterators,
// transaction and cursor, the bound residual filter, and for the range the
// projection slab that holds the result rows.
func TestWireRoundTripAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("loads a 5,000-row table")
	}
	f := newWireFixture(t)
	for _, tc := range []struct {
		name            string
		fn              func(*wireFixture, testing.TB)
		maxAllocs, maxB float64
	}{
		{"PointSelect", (*wireFixture).pointSelect, 17, 1152},
		{"Range50", (*wireFixture).range50, 45, 11264},
		{"AdhocPoint", (*wireFixture).adhocPoint, 52, 3328},
		{"PointUpdate", (*wireFixture).pointUpdate, 24 + stripeAssertAllocs, 1664},
	} {
		allocs, bytes := perRun(t, 200, func() { tc.fn(f, t) })
		t.Logf("%s: %.1f allocs, %.0f B per round trip", tc.name, allocs, bytes)
		if allocs > tc.maxAllocs || bytes > tc.maxB {
			t.Errorf("%s: %.1f allocs and %.0f B per round trip, ceiling %.0f allocs and %.0f B",
				tc.name, allocs, bytes, tc.maxAllocs, tc.maxB)
		}
	}
}

func benchWire(b *testing.B, fn func(*wireFixture, testing.TB)) {
	f := newWireFixture(b)
	for i := 0; i < 50; i++ {
		fn(f, b)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fn(f, b)
	}
}

// BenchmarkWirePointSelect is kv_read's prepared point lookup, end to end
// over loopback: Bind, Execute, DataBatch, CommandComplete, Ready.
func BenchmarkWirePointSelect(b *testing.B) { benchWire(b, (*wireFixture).pointSelect) }

// BenchmarkWireRange50 is kv_read's prepared 50-row primary-key range.
func BenchmarkWireRange50(b *testing.B) { benchWire(b, (*wireFixture).range50) }

// BenchmarkWireAdhocPoint is kv_read's ad-hoc point lookup through the simple
// protocol (the ad-hoc plan memo answers the repeated texts).
func BenchmarkWireAdhocPoint(b *testing.B) { benchWire(b, (*wireFixture).adhocPoint) }
