package cc

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Weights is the compressed linear decision model (the paper's "flattened
// layer"): score(a) = W[a]·encode(f) + B[a]. It is immutable once published
// so the per-operation inference path is lock-free.
type Weights struct {
	W [NumActions][FeatureDim]float64
	B [NumActions]float64
}

// LearnedPolicy is NeurDB(CC): a contention-state decision model whose
// inference is a 4×8 matrix-vector product — cheap enough to run on every
// operation of millisecond transactions without becoming the bottleneck
// (the paper's "model must not become a bottleneck" constraint; weights are
// read through an atomic snapshot, so the greedy path takes no locks).
type LearnedPolicy struct {
	weights atomic.Pointer[Weights]

	// exploring enables the refinement phase: softmax sampling + REINFORCE.
	exploring atomic.Bool

	mu          sync.Mutex // guards the exploration state below
	Temperature float64
	rng         *rand.Rand
	rewardEWMA  float64
	trace       []traceEntry
	traceCap    int
}

type traceEntry struct {
	feat   [FeatureDim]float64
	action Action
	probs  [NumActions]float64
}

// NewLearnedPolicy builds the model with pre-trained defaults: optimistic
// execution on cold records, no-wait latching for hot-record writes, and
// early abort for doomed retries. These priors play the role of the paper's
// pre-training on synthetic workloads; the two-phase adapter specializes
// them online.
func NewLearnedPolicy(seed int64) *LearnedPolicy {
	p := &LearnedPolicy{rng: rand.New(rand.NewSource(seed)), traceCap: 4096}
	w := &Weights{}
	// Feature layout: [bias, isWrite, opFrac, txnLen, contention, lockState,
	// waiters, retries].
	// The pre-trained prior encodes what the synthetic sweeps teach on this
	// substrate: fail-fast latching dominates for writes (no spin convoys,
	// no commit-time validation waste — aborts happen before work is
	// wasted); reads run optimistically on cold records and switch to
	// fail-fast shared latches on hot ones; transactions that keep
	// retrying against saturated records abort early. The adapter's bias
	// knobs re-weigh these regimes when the workload drifts.
	// Action 0 (optimistic): below the fail-fast row in the prior; the
	// adapter's bias knob promotes it on read-heavy drifted workloads.
	w.W[ActOptimistic] = [FeatureDim]float64{-1.5, -5.0, 0, 0, -1.2, 0, 0, 0}
	// Action 1 (lock-wait): disabled in the prior; spin-waiting collapses
	// under parallelism on small-core boxes.
	w.W[ActLockWait] = [FeatureDim]float64{-5.0, 0, 0, 0, 0, 0, 0, 0}
	// Action 2 (lock-nowait): the default regime — conflicts abort before
	// any work is wasted and latch holds never spin.
	w.W[ActLockNoWait] = [FeatureDim]float64{1.0, 0.2, 0, 0, 0, 0, 0, 0}
	// Action 3 (abort-now): strictly a last resort — it only outscores the
	// fail-fast row when contention, lock state, waiters AND the retry
	// count are all saturated (a genuinely doomed transaction). A lower
	// threshold would re-abort every retry and spiral.
	w.W[ActAbortNow] = [FeatureDim]float64{-4.4, 0.3, 0.4, 0, 1.2, 0.5, 0.5, 3.0}
	p.weights.Store(w)
	return p
}

// Name implements Policy.
func (p *LearnedPolicy) Name() string { return "neurdb-cc" }

// Snapshot returns the current weights.
func (p *LearnedPolicy) Snapshot() *Weights { return p.weights.Load() }

// SetWeights publishes new weights.
func (p *LearnedPolicy) SetWeights(w *Weights) { p.weights.Store(w) }

// StartExploring enables softmax exploration at the given temperature
// (refinement phase).
func (p *LearnedPolicy) StartExploring(temp float64) {
	p.mu.Lock()
	p.Temperature = temp
	p.trace = p.trace[:0]
	p.mu.Unlock()
	p.exploring.Store(true)
}

// StopExploring returns to greedy, lock-free inference.
func (p *LearnedPolicy) StopExploring() {
	p.exploring.Store(false)
	p.mu.Lock()
	p.Temperature = 0
	p.trace = p.trace[:0]
	p.mu.Unlock()
}

func scoreActions(w *Weights, feat *[FeatureDim]float64) [NumActions]float64 {
	var scores [NumActions]float64
	for a := 0; a < int(NumActions); a++ {
		s := w.B[a]
		for i, v := range feat {
			s += w.W[a][i] * v
		}
		scores[a] = s
	}
	return scores
}

// Choose implements Policy. The greedy path (production mode) is lock-free.
func (p *LearnedPolicy) Choose(f *Features) Action {
	var feat [FeatureDim]float64
	f.Encode(feat[:])
	w := p.weights.Load()
	scores := scoreActions(w, &feat)
	if !p.exploring.Load() {
		best := 0
		for a := 1; a < int(NumActions); a++ {
			if scores[a] > scores[best] {
				best = a
			}
		}
		return Action(best)
	}
	return p.chooseExploring(&feat, &scores)
}

// chooseExploring samples from the softmax and records the decision trace.
func (p *LearnedPolicy) chooseExploring(feat *[FeatureDim]float64, scores *[NumActions]float64) Action {
	p.mu.Lock()
	defer p.mu.Unlock()
	temp := p.Temperature
	if temp <= 0 {
		temp = 0.3
	}
	var probs [NumActions]float64
	maxS := scores[0]
	for _, s := range scores[1:] {
		if s > maxS {
			maxS = s
		}
	}
	var sum float64
	for a := range probs {
		probs[a] = math.Exp((scores[a] - maxS) / temp)
		sum += probs[a]
	}
	for a := range probs {
		probs[a] /= sum
	}
	u := p.rng.Float64()
	chosen := Action(0)
	acc := 0.0
	for a := range probs {
		acc += probs[a]
		if u <= acc {
			chosen = Action(a)
			break
		}
		chosen = Action(a)
	}
	if len(p.trace) < p.traceCap {
		p.trace = append(p.trace, traceEntry{feat: *feat, action: chosen, probs: probs})
	}
	return chosen
}

// NoteOutcome implements Policy: during refinement it applies a REINFORCE
// update over the recorded decision trace with reward = +1/latency for
// commits, -penalty for give-ups. In greedy mode it is a no-op with no
// synchronization.
func (p *LearnedPolicy) NoteOutcome(committed bool, dur time.Duration) {
	if !p.exploring.Load() {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.trace) == 0 {
		return
	}
	var reward float64
	if committed {
		us := dur.Seconds() * 1e6
		reward = 1.0 / (1.0 + us/100)
	} else {
		reward = -0.5
	}
	p.rewardEWMA = 0.99*p.rewardEWMA + 0.01*reward
	adv := reward - p.rewardEWMA
	const lr = 0.02
	old := p.weights.Load()
	w := *old // copy
	for _, e := range p.trace {
		for a := 0; a < int(NumActions); a++ {
			indicator := 0.0
			if Action(a) == e.action {
				indicator = 1
			}
			g := adv * (indicator - e.probs[a])
			w.B[a] += lr * g
			for i := range e.feat {
				w.W[a][i] += lr * g * e.feat[i]
			}
		}
	}
	p.weights.Store(&w)
	p.trace = p.trace[:0]
}

// Clone copies the model (weights only).
func (p *LearnedPolicy) Clone(seed int64) *LearnedPolicy {
	c := &LearnedPolicy{rng: rand.New(rand.NewSource(seed)), traceCap: p.traceCap}
	w := *p.weights.Load()
	c.weights.Store(&w)
	return c
}

// applyMeta perturbs a base model with the low-dimensional meta-parameters
// explored by Bayesian optimization in the filtering phase: per-action bias
// shifts and a contention-sensitivity multiplier.
func applyMeta(base *LearnedPolicy, meta []float64, seed int64) *LearnedPolicy {
	c := base.Clone(seed)
	w := *c.weights.Load()
	for a := 0; a < int(NumActions); a++ {
		w.B[a] += meta[a]
	}
	scale := 1 + meta[4]
	for a := 0; a < int(NumActions); a++ {
		w.W[a][4] *= scale // contention feature sensitivity
		w.W[a][5] *= scale // lock-state sensitivity
	}
	c.weights.Store(&w)
	return c
}

// metaParams returns the filtering-phase search space.
func metaParams() []searchParam {
	return []searchParam{
		{Name: "b_opt", Lo: -1, Hi: 1},
		{Name: "b_wait", Lo: -1, Hi: 1},
		{Name: "b_nowait", Lo: -1, Hi: 1},
		{Name: "b_abort", Lo: -1, Hi: 1},
		{Name: "contention_scale", Lo: -0.5, Hi: 1.0},
	}
}

// Adapter implements the paper's two-phase adaptation (Fig. 4): a
// *filtering* phase generates candidate models via Bayesian optimization
// and evaluates each over a short live timeframe, keeping the best; a
// *refinement* phase then runs reward-based (REINFORCE) updates on the
// winner. The filter-and-refine principle applied to model search.
type Adapter struct {
	Candidates int
	EvalWindow time.Duration
	RefineTime time.Duration
	RefineTemp float64
	seed       int64
}

// NewAdapter returns an adapter with benchmark-friendly defaults.
func NewAdapter(seed int64) *Adapter {
	return &Adapter{
		Candidates: 6,
		EvalWindow: 30 * time.Millisecond,
		RefineTime: 120 * time.Millisecond,
		RefineTemp: 0.4,
		seed:       seed,
	}
}

// Adapt runs two-phase adaptation against live traffic: the engine keeps
// executing gen on `threads` workers while candidate policies are swapped
// in. It returns the adapted policy (already installed in the engine).
func (ad *Adapter) Adapt(e *Engine, gen Generator, threads int, base *LearnedPolicy) *LearnedPolicy {
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
		}(ad.seed + int64(w))
	}

	measure := func(p *LearnedPolicy) float64 {
		e.SetPolicy(p)
		e.ResetStats()
		time.Sleep(ad.EvalWindow)
		commits, _ := e.Stats()
		return float64(commits) / ad.EvalWindow.Seconds()
	}

	// Phase 1 — filtering: Bayesian-optimization candidate sweep.
	bo := newBayesOpt(metaParams(), ad.seed)
	bestPolicy := base
	bestScore := measure(base)
	bo.Observe(make([]float64, len(metaParams())), bestScore)
	for c := 0; c < ad.Candidates; c++ {
		meta := bo.Suggest()
		cand := applyMeta(base, meta, ad.seed+int64(c)+100)
		score := measure(cand)
		bo.Observe(meta, score)
		if score > bestScore {
			bestScore = score
			bestPolicy = cand
		}
	}

	// Phase 2 — refinement: reward-based updates with softmax exploration.
	refined := bestPolicy.Clone(ad.seed + 999)
	refined.StartExploring(ad.RefineTemp)
	e.SetPolicy(refined)
	time.Sleep(ad.RefineTime)
	refined.StopExploring()

	close(stop)
	wg.Wait()
	return refined
}
