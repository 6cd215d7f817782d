package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"neurdb"
)

// ParallelPoint is one worker-count measurement of the parallel experiment.
type ParallelPoint struct {
	Workers int
	// ScanAggNsPerOp is a full-table scan→filter→group-aggregate pipeline.
	ScanAggNsPerOp float64
	// JoinNsPerOp is a hash join probing the big table against a dimension
	// table, with a filter on the probe side.
	JoinNsPerOp float64
}

// ParallelResult reports morsel-driven intra-query scaling: the same
// queries executed with 1, 2, and 4 workers. Speedups are t(1)/t(4); on a
// host with fewer than 4 procs (MaxProcs) the workers time-slice one core
// and the speedup floor is not meaningful, so the CI gate skips it there.
type ParallelResult struct {
	Rows     int
	Iters    int
	MaxProcs int
	Points   []ParallelPoint
	// ScanAggSpeedup4 / JoinSpeedup4 are the 1-worker over 4-worker
	// latency ratios (>1 means parallel is faster).
	ScanAggSpeedup4 float64
	JoinSpeedup4    float64
}

// RunParallel loads a multi-morsel table plus a small dimension table and
// measures the scan+agg and join pipelines at 1/2/4 workers.
func RunParallel(sc Scale) (*ParallelResult, error) {
	db := neurdb.Open(neurdb.DefaultConfig())
	if _, err := db.Exec(`CREATE TABLE wide (id INT PRIMARY KEY, grp INT, a DOUBLE, b DOUBLE)`); err != nil {
		return nil, err
	}
	// No index on dims.g: the join must plan as a hash join with seq-scan
	// inputs (parallel probe over wide, serial build over the small side).
	if _, err := db.Exec(`CREATE TABLE dims (g INT, label TEXT)`); err != nil {
		return nil, err
	}
	const chunk = 512
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
	for g := 0; g < 64; g++ {
		if _, err := db.Exec(fmt.Sprintf(`INSERT INTO dims VALUES (%d, 'd%d')`, g, g)); err != nil {
			return nil, err
		}
	}
	if _, err := db.Exec(`ANALYZE`); err != nil {
		return nil, err
	}

	scanAgg, err := db.Prepare(`SELECT grp, COUNT(*), SUM(a), MAX(b) FROM wide WHERE a >= 25 GROUP BY grp`)
	if err != nil {
		return nil, err
	}
	join, err := db.Prepare(`SELECT COUNT(*) FROM wide w, dims d WHERE w.grp = d.g AND w.a > 50`)
	if err != nil {
		return nil, err
	}
	measure := func(stmt *neurdb.Stmt, wantRows int) (float64, error) {
		if res, err := stmt.Exec(); err != nil { // warmup + sanity
			return 0, err
		} else if len(res.Rows) != wantRows {
			return 0, fmt.Errorf("bench parallel: got %d rows, want %d", len(res.Rows), wantRows)
		}
		start := time.Now()
		for i := 0; i < sc.ParallelIters; i++ {
			if _, err := stmt.Exec(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Nanoseconds()) / float64(sc.ParallelIters), nil
	}

	res := &ParallelResult{Rows: sc.ParallelRows, Iters: sc.ParallelIters, MaxProcs: runtime.GOMAXPROCS(0)}
	for _, w := range []int{1, 2, 4} {
		// The prepared statements run on the implicit session, which
		// SET workers configures.
		if _, err := db.Exec(fmt.Sprintf("SET workers = %d", w)); err != nil {
			return nil, err
		}
		pt := ParallelPoint{Workers: w}
		if pt.ScanAggNsPerOp, err = measure(scanAgg, 64); err != nil {
			return nil, err
		}
		if pt.JoinNsPerOp, err = measure(join, 1); err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	base, top := res.Points[0], res.Points[len(res.Points)-1]
	if top.ScanAggNsPerOp > 0 {
		res.ScanAggSpeedup4 = base.ScanAggNsPerOp / top.ScanAggNsPerOp
	}
	if top.JoinNsPerOp > 0 {
		res.JoinSpeedup4 = base.JoinNsPerOp / top.JoinNsPerOp
	}
	return res, nil
}

// RenderParallel prints the scaling table.
func RenderParallel(r *ParallelResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "morsel-driven parallel scaling (%d rows, %d iters, GOMAXPROCS=%d)\n",
		r.Rows, r.Iters, r.MaxProcs)
	fmt.Fprintf(&sb, "  %-8s %14s %14s\n", "workers", "scan+agg ns/op", "join ns/op")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-8d %14.0f %14.0f\n", p.Workers, p.ScanAggNsPerOp, p.JoinNsPerOp)
	}
	fmt.Fprintf(&sb, "  speedup at 4 workers: scan+agg %.2fx, join %.2fx\n",
		r.ScanAggSpeedup4, r.JoinSpeedup4)
	if r.MaxProcs < 4 {
		fmt.Fprintf(&sb, "  (host has %d procs; 4-worker speedup is not expected to exceed 1x)\n", r.MaxProcs)
	}
	return sb.String()
}
