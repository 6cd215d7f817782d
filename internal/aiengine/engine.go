package aiengine

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// Batch is one unit of streamed training/inference data.
type Batch struct {
	X, Y *nn.Matrix
}

// DataSource supplies batches to a dispatcher.
type DataSource interface {
	// Next returns the next batch, or ok=false when exhausted.
	Next() (*Batch, bool)
}

// RowBatchSource supplies raw relational rows in batches (e.g. a table scan
// or a workload generator).
type RowBatchSource interface {
	Next() ([]rel.Row, bool)
}

// Featurizer converts relational rows into model inputs (x) and labels (y).
type Featurizer func([]rel.Row) (x, y *nn.Matrix)

// StreamingLoader is the paper's streaming data loader: a prefetching
// pipeline that featurizes row batches in a background goroutine so data
// preparation overlaps model computation. Window controls the number of
// prepared batches buffered ahead.
type StreamingLoader struct {
	ch   chan *Batch
	done chan struct{}
	stop sync.Once
}

// NewStreamingLoader starts the prefetch pipeline. Its goroutine ends when
// src is exhausted or at Close, whichever comes first: a consumer that may
// stop before draining the loader (a failed task) must call Close.
func NewStreamingLoader(src RowBatchSource, feat Featurizer, window int) *StreamingLoader {
	if window < 1 {
		window = 1
	}
	// The buffer is the prefetch window: the batches prepared ahead of the consumer.
	l := &StreamingLoader{ch: make(chan *Batch, window), done: make(chan struct{})}
	go func() {
		defer close(l.ch)
		for {
			rows, ok := src.Next()
			if !ok {
				return
			}
			x, y := feat(rows)
			select {
			case l.ch <- &Batch{X: x, Y: y}:
			case <-l.done:
				return
			}
		}
	}()
	return l
}

// Next implements DataSource.
func (l *StreamingLoader) Next() (*Batch, bool) {
	b, ok := <-l.ch
	return b, ok
}

// Close stops the prefetch goroutine and returns once it has exited, dropping
// whatever it had prepared. It may be called more than once, and after the
// loader is drained.
func (l *StreamingLoader) Close() {
	l.stop.Do(func() { close(l.done) })
	for range l.ch {
	}
}

// SliceSource adapts a pre-materialized batch list to DataSource.
type SliceSource struct {
	Batches []*Batch
	pos     int
}

// Next implements DataSource.
func (s *SliceSource) Next() (*Batch, bool) {
	if s.pos >= len(s.Batches) {
		return nil, false
	}
	b := s.Batches[s.pos]
	s.pos++
	return b, true
}

// Engine is the in-database AI engine: it owns the model store, connects
// dispatchers to AI runtimes, and exposes the train / inference / fine-tune
// operators that the executor's AI operators call.
type Engine struct {
	Store *models.Store

	mu    sync.Mutex
	addrs []string
	rr    int

	// memo is the frozen-prefix memo of the in-process runtime; an external
	// runtime node has its own.
	memo *armnet.PrefixMemo
}

// NewEngine creates an engine backed by the given model store. With no
// registered runtimes, tasks run on in-process runtime goroutines connected
// through synchronous pipes.
func NewEngine(store *models.Store) *Engine {
	return &Engine{Store: store, memo: armnet.NewPrefixMemo(armnet.PrefixMemoBytes)}
}

// AddRuntime registers an external runtime address (round-robin dispatch).
func (e *Engine) AddRuntime(addr string) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.addrs = append(e.addrs, addr)
}

// connect opens a task connection to a runtime.
func (e *Engine) connect() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	var addr string
	if len(e.addrs) > 0 {
		addr = e.addrs[e.rr%len(e.addrs)]
		e.rr++
	}
	e.mu.Unlock()
	if addr != "" {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("aiengine: dial runtime %s: %w", addr, err)
		}
		return conn, nil
	}
	local, remote := net.Pipe()
	go func() {
		defer remote.Close()
		ServeTask(remote, e.memo)
	}()
	return local, nil
}

// RunTask executes one task over a connection: handshake, windowed batch
// streaming with credit-based flow control, finish, result. It starts a
// sender and a reader goroutine; on every return path the sender is released
// at once and the reader as soon as the caller closes conn, which a caller
// does whether the task succeeded or not.
func RunTask(conn io.ReadWriter, spec TaskSpec, src DataSource) (*TaskResult, error) {
	payload, err := gobEncode(spec)
	if err != nil {
		return nil, err
	}
	if err := writeFrame(conn, msgHandshake, payload); err != nil {
		return nil, fmt.Errorf("aiengine: send handshake: %w", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return nil, fmt.Errorf("aiengine: read handshake ack: %w", err)
	}
	if typ == msgError {
		var msg string
		_ = gobDecode(payload, &msg)
		return nil, fmt.Errorf("aiengine: runtime error: %s", msg)
	}
	var ack HandshakeAck
	if err := gobDecode(payload, &ack); err != nil {
		return nil, fmt.Errorf("aiengine: decode handshake ack: %w", err)
	}
	window := ack.Window
	if window < 1 {
		window = 1
	}

	// Credit-based pipelined streaming: the sender goroutine keeps up to
	// `window` unacknowledged batches in flight while this goroutine drains
	// acknowledgements.
	credits := make(chan struct{}, window)
	for i := 0; i < window; i++ {
		credits <- struct{}{}
	}
	returned := make(chan struct{})
	defer close(returned)
	var sent atomic.Int64
	senderDone := make(chan error, 1)
	go func() {
		var frame []byte // writeFrame is done with it when it returns
		for {
			b, ok := src.Next()
			if !ok {
				senderDone <- nil
				return
			}
			select {
			case <-credits:
			case <-returned:
				return
			}
			frame = appendBatch(frame[:0], b.X, b.Y)
			if err := writeFrame(conn, msgBatch, frame); err != nil {
				senderDone <- err
				return
			}
			sent.Add(1)
		}
	}()

	// A dedicated reader goroutine lets the main loop select between
	// incoming frames and sender completion without blocking on either.
	type inFrame struct {
		typ     byte
		payload []byte
		err     error
	}
	frames := make(chan inFrame, 8) // decouples frame reads from ack handling; any size works
	go func() {
		for {
			typ, payload, err := readFrame(conn)
			select {
			case frames <- inFrame{typ, payload, err}:
			case <-returned:
				return
			}
			if err != nil {
				return
			}
		}
	}()

	result := &TaskResult{}
	acked := int64(0)
	total := int64(-1) // unknown until the sender finishes
	for total < 0 || acked < total {
		select {
		case err := <-senderDone:
			if err != nil {
				return nil, fmt.Errorf("aiengine: stream batches: %w", err)
			}
			total = sent.Load()
		case f := <-frames:
			if f.err != nil {
				return nil, fmt.Errorf("aiengine: read ack: %w", f.err)
			}
			switch f.typ {
			case msgBatchAck:
				ba, err := decodeBatchAck(f.payload)
				if err != nil {
					return nil, err
				}
				if len(ba.Preds) == 0 {
					result.Losses = append(result.Losses, ba.Loss)
				}
				result.Preds = append(result.Preds, ba.Preds...)
				acked++
				credits <- struct{}{}
			case msgError:
				var msg string
				_ = gobDecode(f.payload, &msg)
				return nil, fmt.Errorf("aiengine: runtime error: %s", msg)
			default:
				return nil, fmt.Errorf("aiengine: unexpected frame %d", f.typ)
			}
		}
	}
	if err := writeFrame(conn, msgFinish, nil); err != nil {
		return nil, fmt.Errorf("aiengine: send finish: %w", err)
	}
	for f := range frames {
		if f.err != nil {
			return nil, fmt.Errorf("aiengine: read result: %w", f.err)
		}
		switch f.typ {
		case msgResult:
			final := &TaskResult{}
			if err := gobDecode(f.payload, final); err != nil {
				return nil, err
			}
			final.Losses = append(result.Losses[:0:0], result.Losses...)
			if len(final.Preds) == 0 {
				final.Preds = result.Preds
			}
			return final, nil
		case msgError:
			var msg string
			_ = gobDecode(f.payload, &msg)
			return nil, fmt.Errorf("aiengine: runtime error: %s", msg)
		default:
			return nil, fmt.Errorf("aiengine: unexpected final frame %d", f.typ)
		}
	}
	return nil, fmt.Errorf("aiengine: connection closed before result")
}

// TrainConfig parameterizes a training task.
type TrainConfig struct {
	Name      string // optional model-view name to bind
	BatchSize int
	Window    int
	LR        float64
}

// TrainOutcome reports a completed training task.
type TrainOutcome struct {
	MID        int
	TS         uint64
	Batches    int
	Losses     []float64
	Samples    int
	Duration   time.Duration
	Throughput float64 // samples/sec
}

// Train runs a training task end to end: dispatch, stream, store the model,
// optionally bind a view.
func (e *Engine) Train(spec models.Spec, cfg TrainConfig, src DataSource) (*TrainOutcome, error) {
	conn, err := e.connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	start := time.Now()
	counter := &countingSource{inner: src}
	res, err := RunTask(conn, TaskSpec{
		Kind:      TaskTrain,
		Model:     spec,
		BatchSize: cfg.BatchSize,
		Window:    cfg.Window,
		LR:        cfg.LR,
	}, counter)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	mid := e.Store.Register(cfg.Name, spec, len(res.Weights))
	ts, err := e.Store.SaveFull(mid, res.Weights)
	if err != nil {
		return nil, err
	}
	if cfg.Name != "" {
		if err := e.Store.CreateView(cfg.Name, mid, 0); err != nil {
			return nil, err
		}
	}
	tp := 0.0
	if dur > 0 {
		tp = float64(counter.samples) / dur.Seconds()
	}
	return &TrainOutcome{
		MID: mid, TS: ts,
		Batches: res.Batches, Losses: res.Losses,
		Samples: counter.samples, Duration: dur, Throughput: tp,
	}, nil
}

// Infer runs inference with model version (mid, ts); ts = 0 means latest.
func (e *Engine) Infer(mid int, ts uint64, src DataSource) ([]float64, error) {
	weights, _, err := e.Store.Load(mid, ts)
	if err != nil {
		return nil, err
	}
	spec, err := e.Store.Spec(mid)
	if err != nil {
		return nil, err
	}
	conn, err := e.connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := RunTask(conn, TaskSpec{
		Kind:        TaskInfer,
		Model:       spec,
		InitWeights: weights,
		Window:      8,
	}, src)
	if err != nil {
		return nil, err
	}
	return res.Preds, nil
}

// FineTune incrementally updates model (mid, ts): layers [0, freezeUpTo)
// stay frozen, the tail trains on the stream, and only the updated layers
// are persisted (models.SavePartial) as a new version.
func (e *Engine) FineTune(mid int, ts uint64, freezeUpTo int, lr float64, src DataSource) (*TrainOutcome, error) {
	weights, _, err := e.Store.Load(mid, ts)
	if err != nil {
		return nil, err
	}
	spec, err := e.Store.Spec(mid)
	if err != nil {
		return nil, err
	}
	conn, err := e.connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	start := time.Now()
	counter := &countingSource{inner: src}
	res, err := RunTask(conn, TaskSpec{
		Kind:        TaskFineTune,
		Model:       spec,
		InitWeights: weights,
		FreezeUpTo:  freezeUpTo,
		LR:          lr,
		Window:      8,
	}, counter)
	if err != nil {
		return nil, err
	}
	updated := make(map[int]nn.LayerWeights)
	for lid := freezeUpTo; lid < len(res.Weights); lid++ {
		if len(res.Weights[lid].Shapes) > 0 {
			updated[lid] = res.Weights[lid]
		}
	}
	newTS, err := e.Store.SavePartial(mid, updated)
	if err != nil {
		return nil, err
	}
	dur := time.Since(start)
	tp := 0.0
	if dur > 0 {
		tp = float64(counter.samples) / dur.Seconds()
	}
	return &TrainOutcome{
		MID: mid, TS: newTS,
		Batches: res.Batches, Losses: res.Losses,
		Samples: counter.samples, Duration: dur, Throughput: tp,
	}, nil
}

type countingSource struct {
	inner   DataSource
	samples int
}

func (c *countingSource) Next() (*Batch, bool) {
	b, ok := c.inner.Next()
	if ok {
		c.samples += b.X.Rows
	}
	return b, ok
}

// TaskManager queues AI tasks and dispatches them to worker goroutines —
// the coordination component of Fig. 2. Each submitted task gets its own
// dispatcher (connection) when executed.
type TaskManager struct {
	tasks chan func()
	wg    sync.WaitGroup
}

// NewTaskManager starts `workers` dispatcher workers.
func NewTaskManager(workers int) *TaskManager {
	if workers < 1 {
		workers = 1
	}
	tm := &TaskManager{tasks: make(chan func(), 64)}
	tm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer tm.wg.Done()
			for f := range tm.tasks {
				f()
			}
		}()
	}
	return tm
}

// Submit enqueues a task and returns a completion channel.
func (tm *TaskManager) Submit(f func()) <-chan struct{} {
	done := make(chan struct{})
	tm.tasks <- func() {
		defer close(done)
		f()
	}
	return done
}

// Close drains and stops the workers.
func (tm *TaskManager) Close() {
	close(tm.tasks)
	tm.wg.Wait()
}
