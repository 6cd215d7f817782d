package aiengine

import (
	"errors"
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
// streaming with credit-based flow control, finish, result. It returns what
// the acks delivered — the loss of every labelled batch and the predictions
// for every other, in stream order, as the outcome's Losses and Preds — and
// the weights of the result frame, nil if no batch trained. It starts a
// sender and a reader goroutine; on every return path the sender is released
// at once and the reader as soon as the caller closes conn, which a caller
// does whether the task succeeded or not.
func RunTask(conn io.ReadWriter, spec TaskSpec, src DataSource) (*TrainOutcome, []nn.LayerWeights, error) {
	fail := func(what string, err error) (*TrainOutcome, []nn.LayerWeights, error) {
		return nil, nil, fmt.Errorf("aiengine: %s: %w", what, err)
	}
	payload, err := gobEncode(spec)
	if err != nil {
		return fail("encode handshake", err)
	}
	if err := writeFrame(conn, msgHandshake, payload); err != nil {
		return fail("send handshake", err)
	}
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fail("read handshake ack", err)
	}
	if typ == msgError {
		return fail("runtime error", runtimeError(payload))
	}
	var ack HandshakeAck
	if err := gobDecode(payload, &ack); err != nil {
		return fail("decode handshake ack", err)
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

	out := &TrainOutcome{}
	acked := int64(0)
	total := int64(-1) // unknown until the sender finishes
	for total < 0 || acked < total {
		select {
		case err := <-senderDone:
			if err != nil {
				// A runtime that fails a batch sends its error and hangs up, so
				// a write that fails is most often the symptom: report the
				// runtime's error if it arrives before the connection's end.
				for f := <-frames; f.err == nil; f = <-frames {
					if f.typ == msgError {
						return fail("runtime error", runtimeError(f.payload))
					}
				}
				return fail("stream batches", err)
			}
			total = sent.Load()
		case f := <-frames:
			if f.err != nil {
				return fail("read ack", f.err)
			}
			switch f.typ {
			case msgBatchAck:
				ba, err := decodeBatchAck(f.payload)
				if err != nil {
					return nil, nil, err
				}
				if len(ba.Preds) == 0 {
					out.Losses = append(out.Losses, ba.Loss)
				}
				out.Preds = append(out.Preds, ba.Preds...)
				acked++
				credits <- struct{}{}
			case msgError:
				return fail("runtime error", runtimeError(f.payload))
			default:
				return nil, nil, fmt.Errorf("aiengine: unexpected frame %d", f.typ)
			}
		}
	}
	if err := writeFrame(conn, msgFinish, nil); err != nil {
		return fail("send finish", err)
	}
	f := <-frames
	switch {
	case f.err != nil:
		return fail("read result", f.err)
	case f.typ == msgError:
		return fail("runtime error", runtimeError(f.payload))
	case f.typ != msgResult:
		return nil, nil, fmt.Errorf("aiengine: unexpected final frame %d", f.typ)
	}
	var res TaskResult
	if err := gobDecode(f.payload, &res); err != nil {
		return fail("decode result", err)
	}
	out.Batches = res.Batches
	return out, res.Weights, nil
}

// runtimeError is the error a msgError frame carries.
func runtimeError(payload []byte) error {
	var msg string
	_ = gobDecode(payload, &msg)
	return errors.New(msg)
}

// TrainConfig parameterizes a training task.
type TrainConfig struct {
	Name      string // optional model-view name to bind
	BatchSize int
	Window    int
	LR        float64
}

// TrainOutcome reports a completed task: the version it stored, the loss of
// every batch it trained on and the predictions for every batch that carried
// no labels.
type TrainOutcome struct {
	MID        int
	TS         uint64
	Batches    int
	Losses     []float64
	Preds      []float64
	Samples    int // rows trained on
	Duration   time.Duration
	Throughput float64 // samples/sec
}

// Train runs a training task end to end: dispatch, stream, store the model,
// optionally bind a view.
func (e *Engine) Train(spec models.Spec, cfg TrainConfig, src DataSource) (*TrainOutcome, error) {
	task := TaskSpec{Model: spec, Window: cfg.Window, LR: cfg.LR}
	return e.run(task, src, func(weights []nn.LayerWeights) (int, uint64, error) {
		mid := e.Store.Register(cfg.Name, spec, len(weights))
		ts, err := e.Store.SaveFull(mid, weights)
		if err == nil && cfg.Name != "" {
			err = e.Store.CreateView(cfg.Name, mid, 0)
		}
		return mid, ts, err
	})
}

// Infer runs inference with model version (mid, ts); ts = 0 means latest. It
// predicts every batch of src, labelled or not, and stores nothing.
func (e *Engine) Infer(mid int, ts uint64, src DataSource) ([]float64, error) {
	// An inference trains nothing, so any split is right: it takes the one
	// fine-tunes use, which lets the two share memo entries.
	task, err := e.storedTask(mid, ts, armnet.FreezePrefixLayers, 0)
	if err != nil {
		return nil, err
	}
	out, err := e.run(task, unlabelled{src}, nil)
	if err != nil {
		return nil, err
	}
	return out.Preds, nil
}

// FineTune incrementally updates model (mid, ts): layers [0, freezeUpTo)
// stay frozen, the tail trains on the stream, and only the updated layers
// are persisted (models.SavePartial) as a new version.
func (e *Engine) FineTune(mid int, ts uint64, freezeUpTo int, lr float64, src DataSource) (*TrainOutcome, error) {
	task, err := e.storedTask(mid, ts, freezeUpTo, lr)
	if err != nil {
		return nil, err
	}
	return e.run(task, src, func(weights []nn.LayerWeights) (int, uint64, error) {
		updated := make(map[int]nn.LayerWeights)
		for lid := freezeUpTo; lid < len(weights); lid++ {
			if len(weights[lid].Shapes) > 0 {
				updated[lid] = weights[lid]
			}
		}
		newTS, err := e.Store.SavePartial(mid, updated)
		return mid, newTS, err
	})
}

// storedTask is the task that resumes stored model version (mid, ts).
func (e *Engine) storedTask(mid int, ts uint64, freezeUpTo int, lr float64) (TaskSpec, error) {
	weights, _, err := e.Store.Load(mid, ts)
	if err != nil {
		return TaskSpec{}, err
	}
	spec, err := e.Store.Spec(mid)
	if err != nil {
		return TaskSpec{}, err
	}
	return TaskSpec{Model: spec, InitWeights: weights, FreezeUpTo: freezeUpTo, LR: lr, Window: 8}, nil
}

// run is the one way a task executes: connect to a runtime, stream src — its
// labelled batches train, the others come back as predictions — and hand the
// trained weights to save, which stores them and returns the version. The
// save comes last: a task that fails anywhere in its stream, predictions
// included, stores nothing. A nil save is for a task that trains nothing.
func (e *Engine) run(task TaskSpec, src DataSource, save func([]nn.LayerWeights) (mid int, ts uint64, err error)) (*TrainOutcome, error) {
	conn, err := e.connect()
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	start := time.Now()
	counter := &countingSource{inner: src}
	out, weights, err := RunTask(conn, task, counter)
	if err != nil {
		return nil, err
	}
	out.Samples, out.Duration = counter.samples, time.Since(start)
	if out.Duration > 0 {
		out.Throughput = float64(out.Samples) / out.Duration.Seconds()
	}
	if save == nil {
		return out, nil
	}
	if weights == nil {
		return nil, fmt.Errorf("aiengine: the task's stream has no labelled batch to train on")
	}
	if out.MID, out.TS, err = save(weights); err != nil {
		return nil, err
	}
	return out, nil
}

// countingSource counts the rows of the labelled batches that pass through.
type countingSource struct {
	inner   DataSource
	samples int
}

func (c *countingSource) Next() (*Batch, bool) {
	b, ok := c.inner.Next()
	if ok && b.Y != nil {
		c.samples += b.X.Rows
	}
	return b, ok
}

// unlabelled strips the labels off a source's batches, which makes every one
// of them a request for predictions.
type unlabelled struct{ DataSource }

func (u unlabelled) Next() (*Batch, bool) {
	b, ok := u.DataSource.Next()
	if ok && b.Y != nil {
		b = &Batch{X: b.X}
	}
	return b, ok
}
