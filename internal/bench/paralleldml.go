package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"neurdb"
)

// ParallelDMLPoint is one worker-count measurement of the write-path
// scaling experiment.
type ParallelDMLPoint struct {
	Workers int
	// UpdateNsPerOp is a statement updating 75% of the table (grp < 48 of
	// 64 groups), morsel-parallel through the striped claim path.
	UpdateNsPerOp float64
	// DeleteNsPerOp is a statement deleting the remaining 25%.
	DeleteNsPerOp float64
	// InsertNsPerOp re-inserts the deleted quarter in multi-row chunks
	// (recorded, not gated: inserts append to the heap tail serially).
	InsertNsPerOp float64
}

// ParallelDMLResult reports morsel-parallel DML scaling: the same mixed
// UPDATE/DELETE/INSERT cycle executed with 1, 2, and 4 workers over a
// fresh identically-loaded table each time. Speedups are t(1)/t(4); on a
// host with fewer than 4 procs (MaxProcs) workers time-slice one core and
// the CI gate skips the floor.
type ParallelDMLResult struct {
	Rows     int
	Iters    int
	MaxProcs int
	Points   []ParallelDMLPoint
	// UpdateSpeedup4 / DeleteSpeedup4 are the 1-worker over 4-worker
	// latency ratios (>1 means parallel is faster).
	UpdateSpeedup4 float64
	DeleteSpeedup4 float64
}

// RunParallelDML measures the write path at 1/2/4 workers. Each worker
// count gets a fresh database with sc.ParallelRows rows so heap layout and
// version-chain state are identical across points; between iterations the
// table is vacuumed (untimed) so dead versions from one cycle don't slow
// the next.
func RunParallelDML(sc Scale) (*ParallelDMLResult, error) {
	res := &ParallelDMLResult{
		Rows:     sc.ParallelRows,
		Iters:    sc.ParallelDMLIters,
		MaxProcs: runtime.GOMAXPROCS(0),
	}

	// The deleted quarter (grp >= 48) is re-inserted with its original
	// values each cycle; the statements are identical every iteration, so
	// build them once up front and keep string assembly out of the timings.
	const chunk = 512
	var reinsert []string
	{
		var sb strings.Builder
		count := 0
		for i := 0; i < sc.ParallelRows; i++ {
			if i%64 < 48 {
				continue
			}
			if count == 0 {
				sb.Reset()
				sb.WriteString("INSERT INTO wide VALUES ")
			} else {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "(%d,%d,%g,%g)", i, i%64, float64(i%1000)*0.5, float64(i%97)*0.25)
			if count++; count == chunk {
				reinsert = append(reinsert, sb.String())
				count = 0
			}
		}
		if count > 0 {
			reinsert = append(reinsert, sb.String())
		}
	}
	wantUpdated := 0
	for i := 0; i < sc.ParallelRows; i++ {
		if i%64 < 48 {
			wantUpdated++
		}
	}
	wantDeleted := sc.ParallelRows - wantUpdated

	for _, w := range []int{1, 2, 4} {
		db := neurdb.Open(neurdb.DefaultConfig())
		if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, grp INT, a DOUBLE, b DOUBLE)`); err != nil {
			return nil, err
		}
		for base := 0; base < sc.ParallelRows; base += chunk {
			var sb strings.Builder
			sb.WriteString("INSERT INTO wide VALUES ")
			for i := base; i < base+chunk && i < sc.ParallelRows; i++ {
				if i > base {
					sb.WriteByte(',')
				}
				fmt.Fprintf(&sb, "(%d,%d,%g,%g)", i, i%64, float64(i%1000)*0.5, float64(i%97)*0.25)
			}
			if _, err := db.Exec(sb.String()); err != nil {
				return nil, err
			}
		}
		if _, err := db.Exec(`ANALYZE`); err != nil {
			return nil, err
		}
		if _, err := db.Exec(fmt.Sprintf("SET workers = %d", w)); err != nil {
			return nil, err
		}

		vacuum := func() {
			horizon := db.TxnManager().OldestActiveTS()
			for _, t := range db.Catalog().All() {
				t.Heap.Vacuum(horizon)
			}
		}
		cycle := func(sanity bool) (upd, del, ins time.Duration, err error) {
			start := time.Now()
			r, err := db.Exec(`UPDATE wide SET a = a + 1 WHERE grp < 48`)
			if err != nil {
				return 0, 0, 0, err
			}
			upd = time.Since(start)
			if sanity && r.Affected != wantUpdated {
				return 0, 0, 0, fmt.Errorf("bench parallel-dml: updated %d rows, want %d", r.Affected, wantUpdated)
			}
			start = time.Now()
			r, err = db.Exec(`DELETE FROM wide WHERE grp >= 48`)
			if err != nil {
				return 0, 0, 0, err
			}
			del = time.Since(start)
			if sanity && r.Affected != wantDeleted {
				return 0, 0, 0, fmt.Errorf("bench parallel-dml: deleted %d rows, want %d", r.Affected, wantDeleted)
			}
			start = time.Now()
			for _, stmt := range reinsert {
				if _, err := db.Exec(stmt); err != nil {
					return 0, 0, 0, err
				}
			}
			ins = time.Since(start)
			return upd, del, ins, nil
		}

		// Warmup cycle (untimed) doubles as the sanity check on row counts.
		if _, _, _, err := cycle(true); err != nil {
			return nil, err
		}
		vacuum()
		var updTotal, delTotal, insTotal time.Duration
		for i := 0; i < sc.ParallelDMLIters; i++ {
			upd, del, ins, err := cycle(false)
			if err != nil {
				return nil, err
			}
			updTotal += upd
			delTotal += del
			insTotal += ins
			vacuum()
		}
		iters := float64(sc.ParallelDMLIters)
		res.Points = append(res.Points, ParallelDMLPoint{
			Workers:       w,
			UpdateNsPerOp: float64(updTotal.Nanoseconds()) / iters,
			DeleteNsPerOp: float64(delTotal.Nanoseconds()) / iters,
			InsertNsPerOp: float64(insTotal.Nanoseconds()) / iters,
		})
	}

	base, top := res.Points[0], res.Points[len(res.Points)-1]
	if top.UpdateNsPerOp > 0 {
		res.UpdateSpeedup4 = base.UpdateNsPerOp / top.UpdateNsPerOp
	}
	if top.DeleteNsPerOp > 0 {
		res.DeleteSpeedup4 = base.DeleteNsPerOp / top.DeleteNsPerOp
	}
	return res, nil
}

// RenderParallelDML prints the write-path scaling table.
func RenderParallelDML(r *ParallelDMLResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "morsel-parallel DML scaling (%d rows, %d iters, GOMAXPROCS=%d)\n",
		r.Rows, r.Iters, r.MaxProcs)
	fmt.Fprintf(&sb, "  %-8s %14s %14s %14s\n", "workers", "update ns/op", "delete ns/op", "insert ns/op")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-8d %14.0f %14.0f %14.0f\n",
			p.Workers, p.UpdateNsPerOp, p.DeleteNsPerOp, p.InsertNsPerOp)
	}
	fmt.Fprintf(&sb, "  speedup at 4 workers: update %.2fx, delete %.2fx\n",
		r.UpdateSpeedup4, r.DeleteSpeedup4)
	if r.MaxProcs < 4 {
		fmt.Fprintf(&sb, "  (host has %d procs; 4-worker speedup is not expected to exceed 1x)\n", r.MaxProcs)
	}
	return sb.String()
}
