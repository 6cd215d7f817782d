package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"neurdb"
)

// DurabilityPoint is one writer-count measurement of the group-commit
// experiment: the insert storm's acknowledged commits per second and how
// many commits one fsync made durable, as the log itself counts them
// (DB.WALStats: Δcommits/Δfsyncs over the storm, read while every writer is
// still committing).
type DurabilityPoint struct {
	Writers   int
	GroupTps  float64
	GroupSize float64
}

// DurabilityResult reports the WAL's commit-path economics: what a durable
// ack costs at different concurrency levels, how many commits share an fsync,
// and what the always-durable mode costs relative to running with no WAL at
// all.
type DurabilityResult struct {
	// FsyncUs is the measured raw fsync latency on the bench host's temp
	// filesystem. It calibrates the gate: when fsync is nearly free (tmpfs,
	// battery-backed cache), a leader is done before followers arrive and
	// the group-size floor self-disables.
	FsyncUs float64
	// WalOffTps is the insert storm with no data directory (pure in-memory
	// engine) at the middle writer count — the zero-durability ceiling.
	WalOffTps float64
	// IntervalTps is the same storm with WalSync "interval" (durability to
	// within the sync window) at the middle writer count.
	IntervalTps float64
	Points      []DurabilityPoint
	// GroupSize32 is GroupSize at the top writer count: how many concurrent
	// committers leader/follower batching puts behind one fsync.
	GroupSize32 float64
	// IntervalOverhead is WalOffTps/IntervalTps: the multiplicative cost of
	// WAL append + background fsync over no logging at all.
	IntervalOverhead float64
}

// durabilityWriters are the storm concurrency levels; the middle entry also
// serves as the writer count for the wal-off and interval comparisons.
var durabilityWriters = []int{1, 8, 32}

// measureFsync times raw 4 KiB write+fsync cycles on the same filesystem
// the storm data directories use.
func measureFsync() (float64, error) {
	f, err := os.CreateTemp("", "neurdb-fsync-probe-")
	if err != nil {
		return 0, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	buf := make([]byte, 4096)
	const iters = 32
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := f.WriteAt(buf, 0); err != nil {
			return 0, err
		}
		if err := f.Sync(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Microseconds()) / iters, nil
}

// durabilityFsyncWait bounds how long a storm outlasts its duration while it
// waits for the first fsync to complete.
const durabilityFsyncWait = 5 * time.Second

// durabilityStorm opens a fresh database under cfg, loads the storm table,
// and runs writers concurrent sessions each committing single-row inserts
// serially for dur, or with a WAL until its first fsync has completed if that
// takes longer. Returns acknowledged commits per second and the mean commits
// per fsync over the storm (0 without a WAL).
func durabilityStorm(cfg neurdb.Config, writers int, dur time.Duration) (tps, groupSize float64, err error) {
	db, err := neurdb.OpenDB(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE storm (id INT PRIMARY KEY, payload TEXT)`); err != nil {
		return 0, 0, err
	}
	_, _, commits0, fsyncs0 := db.WALStats()

	payload := strings.Repeat("x", 64)
	var stop atomic.Bool
	var commits atomic.Int64
	errCh := make(chan error, writers)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for seq := 0; !stop.Load(); seq++ {
				id := int64(w)*10_000_000 + int64(seq)
				if _, err := s.Exec(`INSERT INTO storm VALUES (?, ?)`, id, payload); err != nil {
					errCh <- err
					return
				}
				commits.Add(1)
			}
		}(w)
	}
	time.Sleep(dur)
	_, _, commits1, fsyncs1 := db.WALStats() // while every writer is still committing
	// On a slow disk one fsync can outlast the storm. Without a completed
	// fsync there is no group to measure, so keep the writers committing
	// until one completes, for at most durabilityFsyncWait.
	deadline := time.Now().Add(durabilityFsyncWait)
	for cfg.DataDir != "" && fsyncs1 == fsyncs0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		_, _, commits1, fsyncs1 = db.WALStats()
	}
	if fsyncs1 > fsyncs0 {
		groupSize = float64(commits1-commits0) / float64(fsyncs1-fsyncs0)
	}
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return 0, 0, err
	default:
	}
	return float64(commits.Load()) / elapsed.Seconds(), groupSize, nil
}

// RunDurability measures the WAL commit path: group commit at 1/8/32
// writers, plus the wal-off and interval-sync reference points, each on a
// fresh data directory.
func RunDurability(sc Scale) (*DurabilityResult, error) {
	res := &DurabilityResult{}
	var err error
	if res.FsyncUs, err = measureFsync(); err != nil {
		return nil, err
	}

	base, err := os.MkdirTemp("", "neurdb-durability-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(base)

	durable := func(name, mode string) neurdb.Config {
		cfg := neurdb.DefaultConfig()
		cfg.DataDir = filepath.Join(base, name)
		cfg.WalSync = mode
		// No background checkpoints: the storm measures the commit path only.
		cfg.CheckpointInterval = 0
		cfg.CheckpointWalMB = 0
		return cfg
	}

	for _, w := range durabilityWriters {
		tps, size, err := durabilityStorm(durable(fmt.Sprintf("group-%d", w), "commit"), w, sc.DurabilityDuration)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, DurabilityPoint{Writers: w, GroupTps: tps, GroupSize: size})
	}

	mid := durabilityWriters[1]
	if res.WalOffTps, _, err = durabilityStorm(neurdb.DefaultConfig(), mid, sc.DurabilityDuration); err != nil {
		return nil, err
	}
	if res.IntervalTps, _, err = durabilityStorm(durable("interval", "interval"), mid, sc.DurabilityDuration); err != nil {
		return nil, err
	}

	res.GroupSize32 = res.Points[len(res.Points)-1].GroupSize
	if res.IntervalTps > 0 {
		res.IntervalOverhead = res.WalOffTps / res.IntervalTps
	}
	return res, nil
}

// RenderDurability prints the WAL commit-path table.
func RenderDurability(r *DurabilityResult) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "WAL commit path (raw fsync %.0f us)\n", r.FsyncUs)
	fmt.Fprintf(&sb, "  %-8s %16s %16s\n", "writers", "group tps", "commits/fsync")
	for _, p := range r.Points {
		fmt.Fprintf(&sb, "  %-8d %16.0f %16.1f\n", p.Writers, p.GroupTps, p.GroupSize)
	}
	fmt.Fprintf(&sb, "  wal off:        %10.0f tps (%d writers)\n", r.WalOffTps, durabilityWriters[1])
	fmt.Fprintf(&sb, "  interval sync:  %10.0f tps (%d writers, %.2fx overhead vs wal off)\n",
		r.IntervalTps, durabilityWriters[1], r.IntervalOverhead)
	return sb.String()
}
