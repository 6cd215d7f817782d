package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"

	"neurdb"
	"neurdb/client"
	"neurdb/internal/server"
)

// stack is the whole system under test in one process: a durable engine, the
// wire server on a loopback TCP listener, and the client connections that
// drive it.
type stack struct {
	cfg      neurdb.Config
	db       *neurdb.DB
	srv      *server.Server
	served   chan error
	addr     string
	conns    []conn
	workers  []worker
	traced   []*tracedConn // parallel to workers; nil in untraced runs
	setup    time.Duration
	fs       *countingFS       // traced runs only
	listener *countingListener // traced runs only
	nextID   int               // worker ids handed out so far
}

// boot builds the stack for one workload and times it: table load, ANALYZE,
// server start, connections and statement preparation — everything that
// happens before warm-up. A non-nil tracer installs the filesystem and
// listener wrappers and the span-recording connection decorator.
func boot(w *workload, inst instance, dir string, tr *tracer) (*stack, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	start := time.Now()
	// The defaults users get: durable, fsync before every acknowledgement,
	// group commit on. Only the data directory is set, plus what the
	// workload itself stands for (pool size relative to its table, periodic
	// checkpoints).
	cfg := neurdb.DefaultConfig()
	cfg.DataDir = dir
	cfg.WalSync = "commit"
	cfg.CheckpointInterval = w.checkpointEvery
	if w.poolPages > 0 {
		cfg.BufferPoolPages = w.poolPages
	}
	st := &stack{cfg: cfg}
	if tr != nil {
		st.fs = newCountingFS(tr)
		st.cfg.FS = st.fs
	}
	db, err := neurdb.OpenDB(st.cfg)
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	st.db = db
	if err := st.finishBoot(w, inst, tr); err != nil {
		st.teardown()
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

func (st *stack) finishBoot(w *workload, inst instance, tr *tracer) error {
	if err := inst.load(st.db); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.addr = ln.Addr().String()
	if tr != nil {
		st.listener = &countingListener{Listener: ln}
		ln = st.listener
	}
	st.srv = server.New(st.db, server.Config{})
	st.served = make(chan error, 1)
	go func() { st.served <- st.srv.Serve(ln) }()
	for i := 0; i < w.conns; i++ {
		if _, err := st.addWorker(inst, tr, true, uint64(i)); err != nil {
			return err
		}
	}
	return nil
}

// addWorker opens one more connection (over the wire, or an embedded
// session) and prepares a worker on it that draws its operations from the
// given random stream. Workers added after boot serve the layer probes.
func (st *stack) addWorker(inst instance, tr *tracer, wire bool, stream uint64) (int, error) {
	var c conn
	layer := "embedded"
	if wire {
		cc, err := client.Connect(st.addr)
		if err != nil {
			return 0, fmt.Errorf("connect: %w", err)
		}
		c, layer = wireConn{cc}, "client"
	} else {
		c = embeddedConn{st.db.NewSession()}
	}
	st.conns = append(st.conns, c)
	var tc *tracedConn
	if tr != nil {
		tc = &tracedConn{conn: c, tr: tr, layer: layer, cur: -1}
		c = tc
	}
	wk, err := inst.newWorker(c, st.nextID, stream)
	if err != nil {
		return 0, fmt.Errorf("prepare: %w", err)
	}
	st.nextID++
	st.workers = append(st.workers, wk)
	st.traced = append(st.traced, tc)
	return len(st.workers) - 1, nil
}

// stopServing closes the client connections and drains the server, leaving
// the engine open.
func (st *stack) stopServing() error {
	var errs []error
	for _, c := range st.conns {
		errs = append(errs, c.close())
	}
	st.conns = nil
	if st.srv != nil {
		st.srv.Shutdown(2 * time.Second)
		errs = append(errs, <-st.served)
		st.srv = nil
	}
	return errors.Join(errs...)
}

// teardown stops everything the stack started and removes its data
// directory.
func (st *stack) teardown() error {
	err := st.stopServing()
	if st.db != nil {
		err = errors.Join(err, st.db.Close())
		st.db = nil
	}
	return errors.Join(err, os.RemoveAll(st.cfg.DataDir))
}

// engineCounts is a snapshot of the cumulative counters the engine exposes
// and the wrappers collect; per-layer ratios are deltas between two of them.
type engineCounts struct {
	poolHits, poolMisses     uint64
	planHits, planMisses     uint64
	stripeClaims, stripeWait uint64
	io                       ioCounts
	wire                     wireCounts
}

func (st *stack) snapshot() engineCounts {
	var c engineCounts
	c.poolHits, c.poolMisses = st.db.BufferPool().Stats()
	c.planHits, c.planMisses = st.db.PlanCacheStats()
	c.stripeClaims, c.stripeWait = st.db.TxnManager().StripeStats()
	if st.fs != nil {
		c.io = st.fs.counts()
	}
	if st.listener != nil {
		c.wire = st.listener.counts()
	}
	return c
}

// bulkInsert loads n rows with multi-row INSERT statements on the embedded
// handle. row appends one "(v1,v2,...)" tuple for row i. 8,192 rows per
// statement keeps the per-commit fsync from dominating the load.
func bulkInsert(db *neurdb.DB, table string, n int, row func(buf []byte, i int) []byte) error {
	const chunk = 8192
	buf := make([]byte, 0, 1<<20)
	for base := 0; base < n; base += chunk {
		buf = append(buf[:0], "INSERT INTO "...)
		buf = append(buf, table...)
		buf = append(buf, " VALUES "...)
		for i := base; i < min(base+chunk, n); i++ {
			if i > base {
				buf = append(buf, ',')
			}
			buf = row(buf, i)
		}
		if _, err := db.Exec(string(buf)); err != nil {
			return err
		}
	}
	return nil
}

// appendTuple appends "(a,b,...)"; floats print in the shortest decimal form
// that parses back to the same float64.
func appendTuple(buf []byte, vals ...any) []byte {
	buf = append(buf, '(')
	for i, v := range vals {
		if i > 0 {
			buf = append(buf, ',')
		}
		switch x := v.(type) {
		case int:
			buf = strconv.AppendInt(buf, int64(x), 10)
		case int64:
			buf = strconv.AppendInt(buf, x, 10)
		case float64:
			buf = strconv.AppendFloat(buf, x, 'f', -1, 64)
		}
	}
	return append(buf, ')')
}

// execAll runs statements in order on the embedded handle.
func execAll(db *neurdb.DB, stmts ...string) error {
	for _, s := range stmts {
		if _, err := db.Exec(s); err != nil {
			return fmt.Errorf("%s: %w", s, err)
		}
	}
	return nil
}

// scalar runs a one-row, one-column query and returns the value as a float.
func scalar(db *neurdb.DB, sql string) (float64, error) {
	res, err := db.Exec(sql)
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 || len(res.Rows[0]) != 1 {
		return 0, fmt.Errorf("%s: want one value, got %d rows", sql, len(res.Rows))
	}
	return res.Rows[0][0].AsFloat(), nil
}

// fsyncProbeUs is context, not a metric: the median cost of a raw 4 KiB
// write+fsync in dir, which explains shifts in commit latency that come from
// the host's storage and not from the engine.
func fsyncProbeUs(dir string) (float64, error) {
	f, err := os.CreateTemp(dir, "fsync-probe-*")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	block := make([]byte, 4096)
	var us []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		if _, err := f.Write(block); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
		us = append(us, float64(time.Since(t0))/1e3)
	}
	return median(us), nil
}
