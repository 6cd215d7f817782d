package cc

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Action is a per-operation concurrency-control decision (paper Fig. 4).
type Action uint8

// The action space. For reads, ActOptimistic is a versioned read validated
// at commit; for writes it defers the write lock to commit time (OCC).
// ActLockWait takes the latch with bounded waiting (2PL-flavoured),
// ActLockNoWait aborts immediately on conflict, and ActAbortNow gives up on
// the whole transaction (doomed-transaction early exit).
const (
	ActOptimistic Action = iota
	ActLockWait
	ActLockNoWait
	ActAbortNow
	NumActions
)

// Op is one operation of a transaction: a read or a delta-write on a key.
type Op struct {
	Key   int
	Write bool
	Delta int64
}

// Txn describes a transaction: its type id (workload-defined) and ops.
type Txn struct {
	Type int
	Ops  []Op
}

// Features is the contention-state encoding fed to decision policies: the
// paper's mix of conflict information (record contention, lock state,
// waiters) and contextual information (operation position, transaction
// length, retry count). FeatureDim must match learned-model weights.
type Features struct {
	IsWrite    bool
	OpIdx      int
	TxnLen     int
	TxnType    int
	Retries    int
	Contention float64
	LockState  float64
	Waiters    float64
}

// FeatureDim is the encoded feature-vector width.
const FeatureDim = 8

// Encode writes the fast low-dimensional encoding into dst (len FeatureDim).
func (f *Features) Encode(dst []float64) {
	dst[0] = 1
	if f.IsWrite {
		dst[1] = 1
	} else {
		dst[1] = 0
	}
	dst[2] = float64(f.OpIdx) / float64(max(f.TxnLen, 1))
	dst[3] = float64(f.TxnLen) / 16
	dst[4] = f.Contention
	dst[5] = f.LockState
	dst[6] = f.Waiters / 4
	if dst[6] > 1 {
		dst[6] = 1
	}
	dst[7] = float64(f.Retries) / 3
	if dst[7] > 1 {
		dst[7] = 1
	}
}

// Policy chooses actions per operation.
type Policy interface {
	Name() string
	Choose(f *Features) Action
	// NoteOutcome feeds the transaction outcome back (reward signal);
	// static policies ignore it.
	NoteOutcome(committed bool, dur time.Duration)
}

// Engine executes transactions against a store under a policy.
type Engine struct {
	store  *Store
	policy atomic.Pointer[policyBox]

	commits atomic.Uint64
	aborts  atomic.Uint64
	// latchTimeouts counts bounded-spin waits that expired (ExclusiveWait /
	// SharedWait / UpgradeWait exhausting their spin budget). A timeout is
	// the engine's deadlock breaker, so a rising rate is the early-warning
	// signal of latch-ordering pathologies.
	latchTimeouts atomic.Uint64
}

type policyBox struct{ p Policy }

// NewEngine creates an engine.
func NewEngine(store *Store, p Policy) *Engine {
	e := &Engine{store: store}
	e.SetPolicy(p)
	return e
}

// SetPolicy swaps the active policy (used by the two-phase adapter while
// the workload keeps running).
func (e *Engine) SetPolicy(p Policy) { e.policy.Store(&policyBox{p: p}) }

// Policy returns the active policy.
func (e *Engine) Policy() Policy { return e.policy.Load().p }

// Stats returns cumulative commit/abort counts.
func (e *Engine) Stats() (commits, aborts uint64) {
	return e.commits.Load(), e.aborts.Load()
}

// LatchTimeouts returns how many bounded latch waits have timed out.
func (e *Engine) LatchTimeouts() uint64 { return e.latchTimeouts.Load() }

// ResetStats zeroes the counters (between measurement intervals).
func (e *Engine) ResetStats() {
	e.commits.Store(0)
	e.aborts.Store(0)
	e.latchTimeouts.Store(0)
}

const lockSpins = 4096

// txnCtx is per-worker scratch to keep the hot path allocation-free.
type txnCtx struct {
	readRecs   []*Record // optimistic read set
	readVers   []uint64
	sharedRecs []*Record // shared-latched reads
	exclRecs   []*Record // exclusively latched (early write locks)
	exclDeltas []int64   // pending deltas for early-locked writes
	deferred   []Op      // writes deferred to commit
	deferRecs  []*Record
	readVals   []int64
}

func newTxnCtx() *txnCtx { return &txnCtx{} }

func (c *txnCtx) reset() {
	c.readRecs = c.readRecs[:0]
	c.readVers = c.readVers[:0]
	c.sharedRecs = c.sharedRecs[:0]
	c.exclRecs = c.exclRecs[:0]
	c.exclDeltas = c.exclDeltas[:0]
	c.deferred = c.deferred[:0]
	c.deferRecs = c.deferRecs[:0]
	c.readVals = c.readVals[:0]
}

// holdsExcl returns the index of rec in the exclusive set, or -1.
func (c *txnCtx) holdsExcl(rec *Record) int {
	for i, r := range c.exclRecs {
		if r == rec {
			return i
		}
	}
	return -1
}

// holdsShared returns the index of rec in the shared set, or -1.
func (c *txnCtx) holdsShared(rec *Record) int {
	for i, r := range c.sharedRecs {
		if r == rec {
			return i
		}
	}
	return -1
}

func (c *txnCtx) dropShared(i int) {
	c.sharedRecs = append(c.sharedRecs[:i], c.sharedRecs[i+1:]...)
}

func (c *txnCtx) releaseAll() {
	for _, r := range c.sharedRecs {
		r.ReleaseShared()
	}
	for _, r := range c.exclRecs {
		r.ReleaseExclusive()
	}
}

// TryTxn executes one attempt of a transaction. It returns committed, and
// terminal=true when the policy decided the transaction is doomed
// (ActAbortNow) — the caller must stop retrying (the paper's "immediately
// abort to avoid unnecessary costs" semantics).
func (e *Engine) TryTxn(ctx *txnCtx, txn *Txn, retries int) (committed, terminal bool) {
	ctx.reset()
	pol := e.Policy()
	var feats Features
	feats.TxnLen = len(txn.Ops)
	feats.TxnType = txn.Type
	feats.Retries = retries

	for i := range txn.Ops {
		op := &txn.Ops[i]
		rec := e.store.Record(op.Key)
		feats.IsWrite = op.Write
		feats.OpIdx = i
		feats.Contention = rec.Contention()
		feats.LockState = rec.LockState()
		feats.Waiters = float64(rec.Waiters())
		action := pol.Choose(&feats)

		if action == ActAbortNow {
			ctx.releaseAll()
			e.aborts.Add(1)
			return false, true
		}
		if op.Write {
			switch action {
			case ActOptimistic:
				// Defer the write to commit time (OCC).
				ctx.deferred = append(ctx.deferred, *op)
				ctx.deferRecs = append(ctx.deferRecs, rec)
			case ActLockWait, ActLockNoWait:
				// Already exclusively held by us: accumulate the delta.
				if i := ctx.holdsExcl(rec); i >= 0 {
					ctx.exclDeltas[i] += op.Delta
					continue
				}
				var ok bool
				if i := ctx.holdsShared(rec); i >= 0 {
					// Lock upgrade: wait for concurrent readers to drain.
					if action == ActLockWait {
						if ok = rec.UpgradeWait(lockSpins); !ok {
							e.latchTimeouts.Add(1)
						}
					} else {
						ok = rec.UpgradeWait(1)
					}
					if ok {
						ctx.dropShared(i)
					}
				} else if action == ActLockWait {
					if ok = rec.ExclusiveWait(lockSpins); !ok {
						e.latchTimeouts.Add(1)
					}
				} else {
					ok = rec.TryExclusive()
				}
				if !ok {
					rec.NoteConflict()
					ctx.releaseAll()
					e.aborts.Add(1)
					return false, false
				}
				rec.DecayConflict()
				// Hold the latch; the delta installs at commit, after
				// validation, so aborts need no rollback.
				ctx.exclRecs = append(ctx.exclRecs, rec)
				ctx.exclDeltas = append(ctx.exclDeltas, op.Delta)
			}
		} else {
			// Reads under our own latch are stable.
			if ctx.holdsExcl(rec) >= 0 || ctx.holdsShared(rec) >= 0 {
				ctx.readVals = append(ctx.readVals, rec.ReadLocked())
				continue
			}
			switch action {
			case ActOptimistic:
				val, ver, ok := rec.ReadOptimistic()
				if !ok {
					rec.NoteConflict()
					ctx.releaseAll()
					e.aborts.Add(1)
					return false, false
				}
				rec.DecayConflict()
				ctx.readRecs = append(ctx.readRecs, rec)
				ctx.readVers = append(ctx.readVers, ver)
				ctx.readVals = append(ctx.readVals, val)
			case ActLockWait, ActLockNoWait:
				var ok bool
				if action == ActLockWait {
					if ok = rec.SharedWait(lockSpins); !ok {
						e.latchTimeouts.Add(1)
					}
				} else {
					ok = rec.TryShared()
				}
				if !ok {
					rec.NoteConflict()
					ctx.releaseAll()
					e.aborts.Add(1)
					return false, false
				}
				rec.DecayConflict()
				ctx.sharedRecs = append(ctx.sharedRecs, rec)
				ctx.readVals = append(ctx.readVals, rec.ReadLocked())
			}
		}
	}

	// Commit: latch deferred writes in key order (deadlock freedom), then
	// validate optimistic reads, then install.
	if len(ctx.deferred) > 0 {
		order := make([]int, len(ctx.deferred))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			return ctx.deferred[order[a]].Key < ctx.deferred[order[b]].Key
		})
		locked := make([]*Record, 0, len(order))
		okAll := true
		var prev *Record
		for _, idx := range order {
			rec := ctx.deferRecs[idx]
			if rec == prev {
				continue // duplicate key already latched this round
			}
			prev = rec
			if ctx.holdsExcl(rec) >= 0 {
				continue // already exclusively held from an early lock
			}
			if si := ctx.holdsShared(rec); si >= 0 {
				// Upgrade our read latch for the deferred write.
				if !rec.UpgradeWait(lockSpins / 4) {
					e.latchTimeouts.Add(1)
					rec.NoteConflict()
					okAll = false
					break
				}
				ctx.dropShared(si)
				ctx.exclRecs = append(ctx.exclRecs, rec)
				ctx.exclDeltas = append(ctx.exclDeltas, 0)
				continue
			}
			if !rec.ExclusiveWait(lockSpins / 4) {
				e.latchTimeouts.Add(1)
				rec.NoteConflict()
				okAll = false
				break
			}
			locked = append(locked, rec)
		}
		if !okAll {
			for _, r := range locked {
				r.ReleaseExclusive()
			}
			ctx.releaseAll()
			e.aborts.Add(1)
			return false, false
		}
		// Validate optimistic reads.
		for i, rec := range ctx.readRecs {
			if rec.Version() != ctx.readVers[i] {
				rec.NoteConflict()
				for _, r := range locked {
					r.ReleaseExclusive()
				}
				ctx.releaseAll()
				e.aborts.Add(1)
				return false, false
			}
		}
		for _, idx := range order {
			ctx.deferRecs[idx].Install(ctx.deferred[idx].Delta)
		}
		for i, rec := range ctx.exclRecs {
			rec.Install(ctx.exclDeltas[i])
		}
		for _, r := range locked {
			r.ReleaseExclusive()
		}
	} else {
		// Validate optimistic reads.
		for i, rec := range ctx.readRecs {
			if rec.Version() != ctx.readVers[i] {
				rec.NoteConflict()
				ctx.releaseAll()
				e.aborts.Add(1)
				return false, false
			}
		}
		for i, rec := range ctx.exclRecs {
			rec.Install(ctx.exclDeltas[i])
		}
	}
	ctx.releaseAll()
	e.commits.Add(1)
	return true, false
}

// RunTxn executes a transaction with retries until commit, maxRetries, or a
// terminal early-abort decision by the policy.
func (e *Engine) RunTxn(ctx *txnCtx, txn *Txn, maxRetries int) bool {
	start := time.Now()
	for attempt := 0; ; attempt++ {
		committed, terminal := e.TryTxn(ctx, txn, attempt)
		if committed {
			e.Policy().NoteOutcome(true, time.Since(start))
			return true
		}
		if terminal || attempt >= maxRetries {
			e.Policy().NoteOutcome(false, time.Since(start))
			return false
		}
		// Bounded randomized backoff.
		for i := 0; i < (attempt+1)*64; i++ {
			_ = i
		}
	}
}

// Generator produces transactions for worker threads.
type Generator interface {
	// Generate fills the next transaction for a worker-local RNG.
	Generate(r *rand.Rand, txn *Txn)
}

// Result summarizes a workload run.
type Result struct {
	Commits    uint64
	Aborts     uint64
	Duration   time.Duration
	Throughput float64 // commits/sec
	AbortRate  float64
}

// Run executes the generator on `threads` workers for the given duration
// and reports throughput.
func (e *Engine) Run(gen Generator, threads int, duration time.Duration) Result {
	e.ResetStats()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ctx := newTxnCtx()
			var txn Txn
			for {
				select {
				case <-stop:
					return
				default:
				}
				gen.Generate(r, &txn)
				e.RunTxn(ctx, &txn, 8)
			}
		}(int64(w) + 1)
	}
	start := time.Now()
	time.Sleep(duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	commits, aborts := e.Stats()
	res := Result{
		Commits:  commits,
		Aborts:   aborts,
		Duration: elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(commits) / elapsed.Seconds()
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res
}

// RunFixed executes exactly n transactions per worker (deterministic tests).
func (e *Engine) RunFixed(gen Generator, threads, perWorker int) Result {
	e.ResetStats()
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < threads; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			ctx := newTxnCtx()
			var txn Txn
			for i := 0; i < perWorker; i++ {
				gen.Generate(r, &txn)
				e.RunTxn(ctx, &txn, 8)
			}
		}(int64(w) + 1)
	}
	wg.Wait()
	elapsed := time.Since(start)
	commits, aborts := e.Stats()
	res := Result{Commits: commits, Aborts: aborts, Duration: elapsed}
	if elapsed > 0 {
		res.Throughput = float64(commits) / elapsed.Seconds()
	}
	if commits+aborts > 0 {
		res.AbortRate = float64(aborts) / float64(commits+aborts)
	}
	return res
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
