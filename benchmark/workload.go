package main

import (
	"sync"
	"time"

	"neurdb"
)

// workload is one traffic mix. The table of all four is in workloads().
type workload struct {
	name string
	why  string
	// conns is the number of closed-loop client connections: each sends
	// its next operation only after the previous one's reply, like an
	// application's connection pool. It never exceeds the host's CPU
	// count, so the numbers measure the engine and not the scheduler.
	conns int
	// poolPages overrides the buffer pool size (0 = the engine default of
	// 4,096 pages) where the workload stands for a table larger than the
	// pool.
	poolPages int
	// checkpointEvery turns on the background checkpointer.
	checkpointEvery time.Duration
	// traceStride: in the traced run one operation in this many gets spans,
	// so that fast workloads do not hold millions of spans in memory.
	traceStride int
	// mainTable is the table the storage scan probe reads.
	mainTable string
	// make builds the seeded generator state; scale divides row counts
	// (1 = full size, 50 = the smoke test).
	make func(seed int64, scale int) instance
}

// instance is a workload bound to a seed: it generates the SQL and arguments
// the engine receives and holds what the correctness checks compare against.
type instance interface {
	// load creates, fills and ANALYZEs the tables and resets run state.
	load(db *neurdb.DB) error
	// newWorker prepares one connection's statements. id is unique per
	// worker; stream selects the random stream its operations come from.
	newWorker(c conn, id int, stream uint64) (worker, error)
	// verify checks end-state invariants on a quiescent engine. It runs
	// before Close and again after OpenDB recovered the data directory, so
	// an acknowledged write that recovery lost fails it.
	verify(db *neurdb.DB) error
}

// worker runs one operation at a time on its connection. op generates the
// operation's inputs, executes it, checks every result against the
// generator, and adds what it did to st. A non-nil error is a failed
// operation.
type worker interface {
	op(st *opStats) error
}

// opStats accumulates what operations did, as counted by the client.
type opStats struct {
	rows      int64 // rows returned or affected
	userBytes int64 // bytes of column values written (8 per value)
	txns      int64 // write transactions acknowledged
	retries   int64 // write-conflict retries
	predicts  int64 // PREDICT statements completed
}

func (a *opStats) add(b opStats) {
	a.rows += b.rows
	a.userBytes += b.userBytes
	a.txns += b.txns
	a.retries += b.retries
	a.predicts += b.predicts
}

// phase is the outcome of driving all workers for a fixed time.
type phase struct {
	latMs     []float64 // per successful operation
	attempted int64
	failed    int64
	opsPerS   float64 // successful operations per second, summed over workers
	stats     opStats
	firstErr  error
}

// runPhase drives workers[:n] closed-loop for d. Each worker starts
// operations until d has passed; its rate is its successful operations over
// the time it was busy (start to the end of its last operation), and the
// phase's rate is the sum over workers. When tr is non-nil, one operation in
// stride (chosen from the sampling stream) is wrapped in a root span named
// "op", whose children the tracedConn records.
func runPhase(st *stack, n int, d time.Duration, tr *tracer, stride int, seed int64) phase {
	type result struct {
		latMs    []float64
		att, bad int64
		rate     float64
		stats    opStats
		err      error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := &results[i]
			wk, tc := st.workers[i], st.traced[i]
			sample := newRNG(seed, 1<<32+uint64(i))
			start := time.Now()
			end := start
			for end.Sub(start) < d {
				traced := tr != nil && sample.IntN(stride) == 0
				if traced {
					tc.opID = int64(i)<<40 | r.att
					tc.cur = tr.begin("op", -1, tc.opID)
				}
				t0 := time.Now()
				err := wk.op(&r.stats)
				end = time.Now()
				if traced {
					tr.end(tc.cur)
					tc.cur = -1
				}
				r.att++
				if err != nil {
					r.bad++
					if r.err == nil {
						r.err = err
					}
					continue
				}
				r.latMs = append(r.latMs, float64(end.Sub(t0))/1e6)
			}
			if busy := end.Sub(start).Seconds(); busy > 0 {
				r.rate = float64(len(r.latMs)) / busy
			}
		}()
	}
	wg.Wait()
	var p phase
	for _, r := range results {
		p.latMs = append(p.latMs, r.latMs...)
		p.attempted += r.att
		p.failed += r.bad
		p.opsPerS += r.rate
		p.stats.add(r.stats)
		if p.firstErr == nil {
			p.firstErr = r.err
		}
	}
	return p
}
