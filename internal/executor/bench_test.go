package executor

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"neurdb/internal/catalog"
	"neurdb/internal/plan"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
	"neurdb/internal/txn"
)

// benchEnv builds a committed table of n rows (id, grp, val) for scan and
// join benchmarks.
type benchEnv struct {
	cat *catalog.Catalog
	mgr *txn.Manager
}

func newBenchEnv(b *testing.B) *benchEnv {
	return &benchEnv{
		cat: catalog.New(storage.NewBufferPool(4096)),
		mgr: txn.NewManager(),
	}
}

func (e *benchEnv) fill(b *testing.B, name string, n, groups int) *catalog.Table {
	tbl, err := e.cat.Create(name, rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "grp", Typ: rel.TypeInt},
		rel.Column{Name: "val", Typ: rel.TypeFloat},
	))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	ctx := &Ctx{Mgr: e.mgr, Txn: e.mgr.Begin(txn.Snapshot, false), Cat: e.cat}
	for i := 0; i < n; i++ {
		if _, err := insertRow(ctx, tbl, rel.Row{
			rel.Int(int64(i)), rel.Int(int64(r.Intn(groups))), rel.Float(r.Float64()),
		}); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.mgr.Commit(ctx.Txn); err != nil {
		b.Fatal(err)
	}
	return tbl
}

func (e *benchEnv) readCtx() *Ctx {
	return &Ctx{Mgr: e.mgr, Txn: e.mgr.Begin(txn.Snapshot, true), Cat: e.cat}
}

const scanRows = 50_000

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// heapPerRow is the live heap a table load added since liveHeap returned
// before, per stored row: versions, rows and their values. Benchmarks report
// it as heap_B/row, the memory side of the value layout.
func heapPerRow(before uint64, rows int) float64 {
	return (float64(liveHeap()) - float64(before)) / float64(rows)
}

// drainBatch pulls a batch iterator dry, returning the row count.
func drainBatch(b *testing.B, it BatchIter, batch *rel.Batch) int {
	if err := it.Open(); err != nil {
		b.Fatal(err)
	}
	defer it.Close()
	n := 0
	for {
		c, err := it.NextBatch(batch)
		if err != nil {
			b.Fatal(err)
		}
		if c == 0 {
			return n
		}
		n += c
	}
}

// BenchmarkSeqScanBatch is the heap scan over 50k rows: one lock
// acquisition, one buffer-pool touch, and one visibility call per page. (The
// row-at-a-time baselines these Batch benchmarks were measured against are
// on record in BENCH_PR1.json and BENCH_PR2.json.)
func BenchmarkSeqScanBatch(b *testing.B) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", scanRows, 16)
	node := &plan.SeqScan{Base: plan.Base{Out: tbl.Schema}, Table: tbl}
	ctx := e.readCtx()
	batch := rel.NewBatch(BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := BuildBatch(node, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if got := drainBatch(b, it, batch); got != scanRows {
			b.Fatalf("scan saw %d rows", got)
		}
	}
	b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

func joinPlan(l, r *catalog.Table) *plan.HashJoin {
	return &plan.HashJoin{
		Base: plan.Base{Out: rel.NewSchema(slices.Concat(l.Schema.Cols, r.Schema.Cols)...)},
		L:    &plan.SeqScan{Base: plan.Base{Out: l.Schema}, Table: l},
		R:    &plan.SeqScan{Base: plan.Base{Out: r.Schema}, Table: r},
		LKey: 1, RKey: 0,
	}
}

// BenchmarkHashJoinBatch: the batched build+probe join, 20k probe x 2k build.
func BenchmarkHashJoinBatch(b *testing.B) {
	e := newBenchEnv(b)
	probe := e.fill(b, "probe", 20_000, 2000)
	build := e.fill(b, "build", 2000, 2000)
	node := joinPlan(probe, build)
	ctx := e.readCtx()
	batch := rel.NewBatch(BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := BuildBatch(node, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if got := drainBatch(b, it, batch); got == 0 {
			b.Fatal("empty join")
		}
	}
}

// BenchmarkHashJoinAggBatch: GROUP BY a build-side column over the 20k x 2k
// join, serially and with two workers: the aggregation below the join, one
// partial per worker fed (probe row, build row) pairs. rows/s counts probe
// rows.
func BenchmarkHashJoinAggBatch(b *testing.B) {
	const probeRows = 20_000
	before := liveHeap()
	e := newBenchEnv(b)
	probe := e.fill(b, "probe", probeRows, 2000)
	build := e.fill(b, "build", 2000, 2000)
	perRow := heapPerRow(before, probeRows+2000)
	grp := &rel.ColRef{Idx: 4} // build.grp
	node := &plan.Agg{
		Child:   joinPlan(probe, build),
		GroupBy: []rel.Expr{grp},
		Items: []plan.AggItem{
			{Key: grp},
			{Agg: &plan.AggSpec{Kind: plan.AggCount}},
			{Agg: &plan.AggSpec{Kind: plan.AggSum, Arg: &rel.ColRef{Idx: 2}}},
		},
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := e.readCtx()
			ctx.Workers = workers
			batch := rel.NewBatch(BatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := BuildBatch(node, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := drainBatch(b, it, batch); got == 0 {
					b.Fatal("empty join aggregate")
				}
			}
			b.ReportMetric(float64(probeRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(perRow, "heap_B/row")
		})
	}
}

// aggPlanNode builds GROUP BY grp with COUNT/SUM/MIN/MAX(val) — the shape
// the aggregation benchmarks run.
func aggPlanNode(tbl *catalog.Table) *plan.Agg {
	grp := &rel.ColRef{Idx: 1}
	val := &rel.ColRef{Idx: 2}
	return &plan.Agg{
		Child:   &plan.SeqScan{Base: plan.Base{Out: tbl.Schema}, Table: tbl},
		GroupBy: []rel.Expr{grp},
		Items: []plan.AggItem{
			{Key: grp},
			{Agg: &plan.AggSpec{Kind: plan.AggCount}},
			{Agg: &plan.AggSpec{Kind: plan.AggSum, Arg: val}},
			{Agg: &plan.AggSpec{Kind: plan.AggMin, Arg: val}},
			{Agg: &plan.AggSpec{Kind: plan.AggMax, Arg: val}},
		},
	}
}

// BenchmarkAggBatch is the grouped aggregation: a hash
// table with a reused key buffer and columnar accumulators, fed directly by
// the batch scan.
func BenchmarkAggBatch(b *testing.B) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", scanRows, 16)
	node := aggPlanNode(tbl)
	ctx := e.readCtx()
	batch := rel.NewBatch(BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := BuildBatch(node, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if got := drainBatch(b, it, batch); got != 16 {
			b.Fatalf("agg produced %d groups", got)
		}
	}
	b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// facts is a committed 50k-row table (id, region, qty, amount) shaped like
// the referee's olap_dashboard facts: 16 regions, 50 quantities, amounts
// that are multiples of 0.25.
func (e *benchEnv) facts(b *testing.B) *catalog.Table {
	tbl, err := e.cat.Create("facts", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "region", Typ: rel.TypeInt},
		rel.Column{Name: "qty", Typ: rel.TypeInt},
		rel.Column{Name: "amount", Typ: rel.TypeFloat},
	))
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	rows := make([]rel.Row, scanRows)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i)), rel.Int(int64(r.Intn(16))), rel.Int(int64(r.Intn(50))),
			rel.Float(float64(r.Intn(4000)) * 0.25)}
	}
	ctx := &Ctx{Mgr: e.mgr, Txn: e.mgr.Begin(txn.Snapshot, false), Cat: e.cat}
	if _, err := InsertBatch(ctx, tbl, rows); err != nil {
		b.Fatal(err)
	}
	if err := e.mgr.Commit(ctx.Txn); err != nil {
		b.Fatal(err)
	}
	return tbl
}

// BenchmarkFilterGroupAgg is the shape of the referee's group_by_region
// panel — SELECT region, COUNT(*), SUM(amount) FROM facts WHERE qty < 25
// GROUP BY region — over 50k rows, serially and with two workers: a
// column-vs-constant filter pushed into the scan, a single numeric group key.
func BenchmarkFilterGroupAgg(b *testing.B) {
	before := liveHeap()
	e := newBenchEnv(b)
	tbl := e.facts(b)
	perRow := heapPerRow(before, scanRows)
	region := &rel.ColRef{Idx: 1}
	node := &plan.Agg{
		Child: &plan.SeqScan{Base: plan.Base{Out: tbl.Schema}, Table: tbl,
			Filter: &rel.BinOp{Kind: rel.OpLt, L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Int(25)}}},
		GroupBy: []rel.Expr{region},
		Items: []plan.AggItem{
			{Key: region},
			{Agg: &plan.AggSpec{Kind: plan.AggCount}},
			{Agg: &plan.AggSpec{Kind: plan.AggSum, Arg: &rel.ColRef{Idx: 3}}},
		},
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := e.readCtx()
			ctx.Workers = workers
			batch := rel.NewBatch(BatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := BuildBatch(node, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := drainBatch(b, it, batch); got != 16 {
					b.Fatalf("agg produced %d groups", got)
				}
			}
			b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
			b.ReportMetric(perRow, "heap_B/row")
		})
	}
}

// BenchmarkOrderByLimit is the shape of the referee's order_by_limit panel
// — SELECT id, amount FROM facts WHERE qty = 7 ORDER BY amount DESC LIMIT
// 100 — over 50k rows (~1,000 pass the filter), serially and with two
// workers: a top-k sort below the projection. rows/s counts scanned rows.
func BenchmarkOrderByLimit(b *testing.B) {
	e := newBenchEnv(b)
	tbl := e.facts(b)
	amount := &rel.ColRef{Idx: 3}
	node := &plan.Limit{N: 100, Child: &plan.Project{
		Exprs: []rel.Expr{&rel.ColRef{Idx: 0}, amount},
		Child: &plan.Sort{Keys: []plan.SortKey{{E: amount, Desc: true}},
			Child: &plan.SeqScan{Base: plan.Base{Out: tbl.Schema}, Table: tbl,
				Filter: &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Int(7)}}}},
	}}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ctx := e.readCtx()
			ctx.Workers = workers
			batch := rel.NewBatch(BatchSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				it, err := BuildBatch(node, ctx)
				if err != nil {
					b.Fatal(err)
				}
				if got := drainBatch(b, it, batch); got != 100 {
					b.Fatalf("top-k produced %d rows", got)
				}
			}
			b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		})
	}
}

// --- batch DML ---

const dmlBenchRows = 100_000

func dmlWhere() rel.Expr {
	return &rel.BinOp{Kind: rel.OpEq, L: &rel.ColRef{Idx: 1}, R: &rel.Const{Val: rel.Int(7)}}
}

func dmlSet() map[int]rel.Expr {
	return map[int]rel.Expr{2: &rel.BinOp{Kind: rel.OpAdd,
		L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Float(1)}}}
}

// benchDML times one DML statement per iteration over a 100k-row table,
// aborting outside the timer so every iteration sees identical data.
func benchDML(b *testing.B, run func(ctx *Ctx, tbl *catalog.Table) (int, error)) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", dmlBenchRows, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Ctx{Mgr: e.mgr, Txn: e.mgr.Begin(txn.Snapshot, false), Cat: e.cat}
		n, err := run(ctx, tbl)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("DML matched no rows")
		}
		b.StopTimer()
		e.mgr.Abort(ctx.Txn)
		b.StartTimer()
	}
	b.ReportMetric(float64(dmlBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "scanned_rows/s")
}

// BenchmarkUpdateWhereBatch is the page-batched UPDATE: per-page visibility,
// claims, index and statistics maintenance.
func BenchmarkUpdateWhereBatch(b *testing.B) {
	set, where := dmlSet(), dmlWhere()
	benchDML(b, func(ctx *Ctx, tbl *catalog.Table) (int, error) {
		return UpdateWhere(ctx, seqSrc(tbl, where), set)
	})
}

// BenchmarkDeleteWhereBatch is the page-batched DELETE.
func BenchmarkDeleteWhereBatch(b *testing.B) {
	where := dmlWhere()
	benchDML(b, func(ctx *Ctx, tbl *catalog.Table) (int, error) {
		return DeleteWhere(ctx, seqSrc(tbl, where))
	})
}

// benchParallelDML times one morsel-parallel DML statement per iteration
// with the worker pool sized to GOMAXPROCS, so `-cpu 1,2,4` records the
// write-path scaling curve through the striped claim path (the
// bench-multicore CI job does exactly that; a 1-core container shows ~1x
// by construction).
func benchParallelDML(b *testing.B, run func(ctx *Ctx, tbl *catalog.Table) (int, error)) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", dmlBenchRows, 16)
	workers := runtime.GOMAXPROCS(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &Ctx{Mgr: e.mgr, Txn: e.mgr.Begin(txn.Snapshot, false), Cat: e.cat, Workers: workers}
		n, err := run(ctx, tbl)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			b.Fatal("DML matched no rows")
		}
		b.StopTimer()
		e.mgr.Abort(ctx.Txn)
		b.StartTimer()
	}
	b.ReportMetric(float64(dmlBenchRows)*float64(b.N)/b.Elapsed().Seconds(), "scanned_rows/s")
}

// BenchmarkParallelDMLUpdate is the morsel-parallel UPDATE (page-batched
// claims through the lock stripes, per-worker side-effect buffers).
func BenchmarkParallelDMLUpdate(b *testing.B) {
	set, where := dmlSet(), dmlWhere()
	benchParallelDML(b, func(ctx *Ctx, tbl *catalog.Table) (int, error) {
		return UpdateWhere(ctx, seqSrc(tbl, where), set)
	})
}

// BenchmarkParallelDMLDelete is the morsel-parallel DELETE.
func BenchmarkParallelDMLDelete(b *testing.B) {
	where := dmlWhere()
	benchParallelDML(b, func(ctx *Ctx, tbl *catalog.Table) (int, error) {
		return DeleteWhere(ctx, seqSrc(tbl, where))
	})
}

// BenchmarkParallelScanAgg runs the scan+aggregation pipeline with the
// morsel-parallel worker pool sized to GOMAXPROCS, so `-cpu 1,2,4` records
// the intra-query scaling curve (the bench-multicore CI job does exactly
// that; a 1-core container shows ~1x by construction).
func BenchmarkParallelScanAgg(b *testing.B) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", scanRows, 16)
	node := aggPlanNode(tbl)
	ctx := e.readCtx()
	ctx.Workers = runtime.GOMAXPROCS(0)
	batch := rel.NewBatch(BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, err := BuildBatch(node, ctx)
		if err != nil {
			b.Fatal(err)
		}
		if got := drainBatch(b, it, batch); got != 16 {
			b.Fatalf("agg produced %d groups", got)
		}
	}
	b.ReportMetric(float64(scanRows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}

// BenchmarkParallelScanFilter is the ordered-exchange pipeline (scan +
// filter + project, no blocking operator) at GOMAXPROCS workers.
func BenchmarkParallelScanFilter(b *testing.B) {
	e := newBenchEnv(b)
	tbl := e.fill(b, "t", scanRows, 16)
	node := &plan.Project{
		Base: plan.Base{Out: tbl.Schema},
		Child: &plan.Filter{
			Base:  plan.Base{Out: tbl.Schema},
			Child: &plan.SeqScan{Base: plan.Base{Out: tbl.Schema}, Table: tbl},
			Pred:  &rel.BinOp{Kind: rel.OpGt, L: &rel.ColRef{Idx: 2}, R: &rel.Const{Val: rel.Float(0.5)}},
		},
		Exprs: []rel.Expr{&rel.ColRef{Idx: 0}, &rel.ColRef{Idx: 2}},
	}
	ctx := e.readCtx()
	ctx.Workers = runtime.GOMAXPROCS(0)
	batch := rel.NewBatch(BatchSize)
	b.ReportAllocs()
	b.ResetTimer()
	rows := 0
	for i := 0; i < b.N; i++ {
		it, err := BuildBatch(node, ctx)
		if err != nil {
			b.Fatal(err)
		}
		rows = drainBatch(b, it, batch)
	}
	b.ReportMetric(float64(rows)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
