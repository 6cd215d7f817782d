package aiengine

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
	"neurdb/internal/rel"
)

// synthSource generates batches from a simple linear ground truth over
// categorical ids so training loss must decrease.
type synthSource struct {
	r       *rand.Rand
	batches int
	size    int
	fields  int
	vocab   int
	cls     bool
	emitted int
}

func (s *synthSource) Next() (*Batch, bool) {
	if s.emitted >= s.batches {
		return nil, false
	}
	s.emitted++
	x := nn.NewMatrix(s.size, s.fields)
	y := nn.NewMatrix(s.size, 1)
	for i := 0; i < s.size; i++ {
		var signal float64
		for j := 0; j < s.fields; j++ {
			id := s.r.Intn(s.vocab)
			x.Set(i, j, float64(id))
			signal += float64(id%7) / 7.0
		}
		signal /= float64(s.fields)
		if s.cls {
			if signal > 0.45 {
				y.Set(i, 0, 1)
			}
		} else {
			y.Set(i, 0, signal)
		}
	}
	return &Batch{X: x, Y: y}, true
}

func testSpec(cls bool) models.Spec {
	return models.Spec{Arch: "armnet", Fields: 4, Vocab: 32, EmbDim: 4, Hidden: 16, Classification: cls, Seed: 7}
}

func TestTrainInProcessLossDecreases(t *testing.T) {
	store := models.NewStore()
	e := NewEngine(store)
	src := &synthSource{r: rand.New(rand.NewSource(1)), batches: 60, size: 64, fields: 4, vocab: 32}
	out, err := e.Train(testSpec(false), TrainConfig{Name: "m1", LR: 0.01}, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 60 || out.Samples != 60*64 {
		t.Fatalf("batches=%d samples=%d", out.Batches, out.Samples)
	}
	first := avg(out.Losses[:10])
	last := avg(out.Losses[len(out.Losses)-10:])
	if last >= first {
		t.Fatalf("loss did not decrease: %.4f -> %.4f", first, last)
	}
	if out.Throughput <= 0 {
		t.Fatal("throughput not measured")
	}
	// Model stored and view bound.
	if vs := store.Versions(out.MID); len(vs) == 0 || vs[len(vs)-1] != out.TS {
		t.Fatal("stored version mismatch")
	}
	if v, ok := store.FindViewByName("m1"); !ok || v.MID != out.MID {
		t.Fatalf("view m1 = %+v, %v", v, ok)
	}
}

func TestInferenceMatchesTraining(t *testing.T) {
	store := models.NewStore()
	e := NewEngine(store)
	src := &synthSource{r: rand.New(rand.NewSource(3)), batches: 80, size: 64, fields: 4, vocab: 32, cls: true}
	out, err := e.Train(testSpec(true), TrainConfig{LR: 0.02}, src)
	if err != nil {
		t.Fatal(err)
	}
	// Inference on fresh data from the same distribution should beat chance.
	test := &synthSource{r: rand.New(rand.NewSource(4)), batches: 4, size: 128, fields: 4, vocab: 32, cls: true}
	var labels []float64
	var inferBatches []*Batch
	for {
		b, ok := test.Next()
		if !ok {
			break
		}
		labels = append(labels, b.Y.Data...)
		inferBatches = append(inferBatches, &Batch{X: b.X})
	}
	preds, err := e.Infer(out.MID, 0, &SliceSource{Batches: inferBatches})
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != len(labels) {
		t.Fatalf("preds %d labels %d", len(preds), len(labels))
	}
	if got := auc(preds, labels); got < 0.75 {
		t.Fatalf("AUC = %.3f, expected learning signal", got)
	}
}

func TestFineTunePersistsOnlyTailLayers(t *testing.T) {
	store := models.NewStore()
	e := NewEngine(store)
	src := &synthSource{r: rand.New(rand.NewSource(5)), batches: 30, size: 64, fields: 4, vocab: 32}
	out, err := e.Train(testSpec(false), TrainConfig{LR: 0.01}, src)
	if err != nil {
		t.Fatal(err)
	}
	bytesAfterFull := store.StorageBytes()

	ft := &synthSource{r: rand.New(rand.NewSource(6)), batches: 10, size: 64, fields: 4, vocab: 32}
	res, err := e.FineTune(out.MID, 0, 2, 0.02, ft)
	if err != nil {
		t.Fatal(err)
	}
	if res.TS <= out.TS {
		t.Fatal("fine-tune must create a newer version")
	}
	// Incremental save must be much smaller than the full model: the frozen
	// embedding (the bulk of parameters) is shared, not re-stored.
	delta := store.StorageBytes() - bytesAfterFull
	if delta <= 0 || delta >= bytesAfterFull/2 {
		t.Fatalf("incremental update stored %d bytes vs full %d", delta, bytesAfterFull)
	}
	// Both versions load, and share the embedding layer bytes.
	v1, _, err := store.Load(out.MID, out.TS)
	if err != nil {
		t.Fatal(err)
	}
	v2, _, err := store.Load(out.MID, res.TS)
	if err != nil {
		t.Fatal(err)
	}
	if len(v1) != len(v2) {
		t.Fatal("layer counts differ")
	}
	// Frozen prefix identical.
	if !sameWeights(v1[0], v2[0]) {
		t.Fatal("embedding layer should be shared across versions")
	}
	// Tail changed.
	if sameWeights(v1[4], v2[4]) {
		t.Fatal("head layer should differ after fine-tuning")
	}
}

func sameWeights(a, b nn.LayerWeights) bool {
	if len(a.Datas) != len(b.Datas) {
		return false
	}
	for i := range a.Datas {
		if len(a.Datas[i]) != len(b.Datas[i]) {
			return false
		}
		for j := range a.Datas[i] {
			if a.Datas[i][j] != b.Datas[i][j] {
				return false
			}
		}
	}
	return true
}

type rowChunks struct {
	rows []rel.Row
	size int
	pos  int
}

func (rc *rowChunks) Next() ([]rel.Row, bool) {
	if rc.pos >= len(rc.rows) {
		return nil, false
	}
	end := rc.pos + rc.size
	if end > len(rc.rows) {
		end = len(rc.rows)
	}
	chunk := rc.rows[rc.pos:end]
	rc.pos = end
	return chunk, true
}

func TestStreamingLoaderPrefetches(t *testing.T) {
	rows := make([]rel.Row, 640)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i % 32)), rel.Float(0.5)}
	}
	src := &rowChunks{rows: rows, size: 64}
	feat := func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		x := nn.NewMatrix(len(rs), 1)
		y := nn.NewMatrix(len(rs), 1)
		for i, row := range rs {
			x.Set(i, 0, row[0].AsFloat())
			y.Set(i, 0, row[1].AsFloat())
		}
		return x, y
	}
	loader := NewStreamingLoader(src, feat, 4)
	count := 0
	for {
		b, ok := loader.Next()
		if !ok {
			break
		}
		if b.X.Rows != 64 {
			t.Fatal("batch size wrong")
		}
		count++
	}
	if count != 10 {
		t.Fatalf("loader produced %d batches", count)
	}
}

// TestProtocolErrors: what a task refuses — an unknown architecture, a stream
// with nothing to train on for an operator that stores a model, and a batch
// of another width than the model's — it refuses with an error, storing
// nothing.
func TestProtocolErrors(t *testing.T) {
	e := NewEngine(models.NewStore())
	if _, err := e.Train(models.Spec{Arch: "nope"}, TrainConfig{}, &SliceSource{}); err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("an unknown architecture: %v", err)
	}

	// A stream without a labelled batch trains nothing: an operator that was
	// to store a model refuses, and an inference answers every row.
	unlabelledOnly := func() *SliceSource { return &SliceSource{Batches: []*Batch{{X: nn.NewMatrix(8, 4)}}} }
	if _, err := e.Train(testSpec(false), TrainConfig{Name: "empty"}, unlabelledOnly()); err == nil || !strings.Contains(err.Error(), "no labelled batch") {
		t.Fatalf("training on an unlabelled stream: %v", err)
	}
	if _, ok := e.Store.FindViewByName("empty"); ok {
		t.Fatal("a task that trained nothing bound a model view")
	}
	out, err := e.Train(testSpec(false), TrainConfig{},
		&synthSource{r: rand.New(rand.NewSource(8)), batches: 2, size: 16, fields: 4, vocab: 32})
	if err != nil {
		t.Fatal(err)
	}
	if preds, err := e.Infer(out.MID, 0, unlabelledOnly()); err != nil || len(preds) != 8 {
		t.Fatalf("inference on an unlabelled stream: %d predictions, %v", len(preds), err)
	}

	// A batch of another width than the model's is an error, not a panic
	// inside a matrix product.
	narrow := func() *SliceSource {
		return &SliceSource{Batches: []*Batch{{X: nn.NewMatrix(8, 2), Y: nn.NewMatrix(8, 1)}}}
	}
	if _, err := e.Train(testSpec(false), TrainConfig{Name: "narrow"}, narrow()); err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("training a 4-field model on a 2-field batch: %v", err)
	}
	if _, err := e.Infer(out.MID, 0, narrow()); err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("a 2-field batch for a 4-field model: %v", err)
	}
	if _, ok := e.Store.FindViewByName("narrow"); ok || len(e.Store.Versions(out.MID)) != 1 {
		t.Fatal("a task refused for its batch width stored a model")
	}
}

// TestTaskStartsOneGoroutine: a task runs on its caller's goroutine, so while
// it streams the only goroutine it has added is the loader's own.
func TestTaskStartsOneGoroutine(t *testing.T) {
	e := NewEngine(models.NewStore())
	base := runtime.NumGoroutine()
	most := 0
	src := &synthSource{r: rand.New(rand.NewSource(9)), batches: 16, size: 32, fields: 4, vocab: 32}
	loader := NewStreamingLoader(&rowChunks{rows: make([]rel.Row, 16*32), size: 32}, func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		most = max(most, runtime.NumGoroutine()) // the loader's goroutine calls this while the task runs
		b, _ := src.Next()
		return b.X, b.Y
	}, 2)
	if _, err := e.Train(testSpec(false), TrainConfig{}, loader); err != nil {
		t.Fatal(err)
	}
	if most > base+1 {
		t.Fatalf("%d goroutines while the task ran, %d before it: a task starts only the loader's", most, base)
	}
}

// memoTrace runs one seeded sequence of tasks — train, then rounds of
// fine-tune + inference, a full retrain, and more rounds on the new weights —
// and returns everything a task can leave behind: losses, predictions and
// the bytes of every stored layer version. before runs ahead of each task.
func memoTrace(t *testing.T, e *Engine, before func()) string {
	t.Helper()
	var out bytes.Buffer
	src := func(seed int64, batches int) *synthSource {
		// A small vocabulary makes rows repeat across tasks, as a sliding
		// window's do.
		return &synthSource{r: rand.New(rand.NewSource(seed)), batches: batches, size: 32, fields: 4, vocab: 3}
	}
	inferX := func(seed int64) *SliceSource {
		s, ss := src(seed, 3), &SliceSource{}
		for b, ok := s.Next(); ok; b, ok = s.Next() {
			ss.Batches = append(ss.Batches, &Batch{X: b.X})
		}
		return ss
	}
	dump := func(mid int) {
		for _, ts := range e.Store.Versions(mid) {
			layers, _, err := e.Store.Load(mid, ts)
			if err != nil {
				t.Fatal(err)
			}
			for _, l := range layers {
				blob, err := nn.EncodeWeights(l)
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "%d@%d %x\n", mid, ts, blob)
			}
		}
	}
	seed := int64(100)
	for retrain := 0; retrain < 2; retrain++ {
		before()
		spec := testSpec(false)
		spec.Vocab, spec.Seed = 3, int64(7+retrain)
		tr, err := e.Train(spec, TrainConfig{LR: 0.01}, src(seed, 12))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "train %x\n", tr.Losses)
		for round := 0; round < 4; round++ {
			seed++
			before()
			ft, err := e.FineTune(tr.MID, 0, armnet.FreezePrefixLayers, 0.02, src(seed, 8))
			if err != nil {
				t.Fatal(err)
			}
			before()
			preds, err := e.Infer(tr.MID, 0, inferX(seed+1000))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "finetune %x\ninfer %x\n", ft.Losses, preds)
		}
		dump(tr.MID)
	}
	return out.String()
}

// TestMemoIsAPureCache: the same task sequence leaves bit-identical losses,
// predictions and stored layers whether the prefix memo persists across
// tasks, is thrown away before every task, is too small to survive a task,
// or is absent. The sequence retrains in the middle: fine-tunes of the new
// weights must not read the old weights' entries, or they would differ from
// the memo-less run.
func TestMemoIsAPureCache(t *testing.T) {
	run := func(limit int, fresh bool) (string, *Engine) {
		e := NewEngine(models.NewStore())
		e.memo = nil
		if limit > 0 {
			e.memo = armnet.NewPrefixMemo(limit)
		}
		return memoTrace(t, e, func() {
			if fresh {
				e.memo = armnet.NewPrefixMemo(limit)
			}
		}), e
	}
	want, _ := run(0, false)
	got, e := run(armnet.PrefixMemoBytes, false)
	if got != want {
		t.Fatal("a persistent memo changed a task's result")
	}
	hits, misses := e.memo.Stats()
	if hits < 4*misses {
		t.Fatalf("persistent memo: %d hits, %d misses — tasks are not sharing entries", hits, misses)
	}
	if got, _ := run(armnet.PrefixMemoBytes, true); got != want {
		t.Fatal("a memo emptied before every task changed a task's result")
	}
	// Room for ~8 entries of 16 outputs: every batch overflows it.
	if got, _ := run(2<<10, false); got != want {
		t.Fatal("a memo that resets mid-task changed a task's result")
	}
}

// TestMemoSharedByConcurrentTasks: inference tasks of two models run at once
// against one engine — one memo, retargeted back and forth between the two
// prefixes — and every task still gets the predictions a memo-less run gets.
func TestMemoSharedByConcurrentTasks(t *testing.T) {
	e := NewEngine(models.NewStore())
	input := func(seed int64) *SliceSource {
		s, ss := &synthSource{r: rand.New(rand.NewSource(seed)), batches: 4, size: 32, fields: 4, vocab: 3}, &SliceSource{}
		for b, ok := s.Next(); ok; b, ok = s.Next() {
			ss.Batches = append(ss.Batches, &Batch{X: b.X})
		}
		return ss
	}
	var mids [2]int
	var want [2][]float64
	for i := range mids {
		spec := testSpec(false)
		spec.Vocab, spec.Seed = 3, int64(20+i)
		out, err := e.Train(spec, TrainConfig{LR: 0.01},
			&synthSource{r: rand.New(rand.NewSource(int64(i))), batches: 6, size: 32, fields: 4, vocab: 3})
		if err != nil {
			t.Fatal(err)
		}
		mids[i] = out.MID
		plain := &Engine{Store: e.Store} // no memo
		if want[i], err = plain.Infer(out.MID, 0, input(50)); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 8)
	for g := 0; g < cap(errs); g++ {
		go func(m int) {
			for round := 0; round < 5; round++ {
				got, err := e.Infer(mids[m], 0, input(50))
				if err == nil && fmt.Sprint(got) != fmt.Sprint(want[m]) {
					err = fmt.Errorf("model %d round %d: predictions differ from the memo-less run", m, round)
				}
				if err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(g % 2)
	}
	for g := 0; g < cap(errs); g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the failed task:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedTaskLeaksNoGoroutine is the regression test for a leak: a task
// that fails before streaming (an unknown model) left the streaming loader's
// producer waiting on its channel, holding every training row. A task that
// trains and then fails while predicting is the other way to stop early; it
// must also store nothing.
func TestFailedTaskLeaksNoGoroutine(t *testing.T) {
	rows := make([]rel.Row, 4096)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i % 32)), rel.Float(0.5)}
	}
	feat := func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		return nn.NewMatrix(len(rs), 1), nn.NewMatrix(len(rs), 1)
	}
	t.Run("unknown model", func(t *testing.T) {
		base := runtime.NumGoroutine()
		e := NewEngine(models.NewStore())
		loader := NewStreamingLoader(&rowChunks{rows: rows, size: 64}, feat, 4)
		if _, err := e.FineTune(99, 0, armnet.FreezePrefixLayers, 0.02, loader); err == nil {
			t.Fatal("fine-tuning an unknown model did not fail")
		}
		loader.Close()
		loader.Close() // idempotent
		if _, ok := loader.Next(); ok {
			t.Fatal("a closed loader still yields batches")
		}
		waitGoroutines(t, base)
	})
	t.Run("prediction phase, after training", func(t *testing.T) {
		e := NewEngine(models.NewStore())
		spec := testSpec(false)
		spec.Fields = 1
		first, err := e.Train(spec, TrainConfig{},
			NewStreamingLoader(&rowChunks{rows: rows[:256], size: 64}, feat, 4))
		if err != nil {
			t.Fatal(err)
		}
		base := runtime.NumGoroutine()
		// Eight labelled batches train; the rest arrive without labels and one
		// field too wide, which fails the runtime's first prediction with more
		// batches still queued behind it.
		stream := func() *StreamingLoader {
			calls := 0
			return NewStreamingLoader(&rowChunks{rows: rows, size: 64}, func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
				if calls++; calls > 8 {
					return nn.NewMatrix(len(rs), 2), nil
				}
				return feat(rs)
			}, 4)
		}
		loader := stream()
		if _, err := e.Train(spec, TrainConfig{Name: "m"}, loader); err == nil || !strings.Contains(err.Error(), "fields") {
			t.Fatalf("a training task whose predictions fail: %v", err)
		}
		loader.Close()
		if _, ok := e.Store.FindViewByName("m"); ok {
			t.Fatal("a task that failed while predicting bound a model view")
		}
		loader = stream()
		if _, err := e.FineTune(first.MID, 0, armnet.FreezePrefixLayers, 0.02, loader); err == nil || !strings.Contains(err.Error(), "fields") {
			t.Fatalf("a fine-tune whose predictions fail: %v", err)
		}
		loader.Close()
		if v := e.Store.Versions(first.MID); len(v) != 1 {
			t.Fatalf("a fine-tune that failed while predicting stored a version: %v", v)
		}
		waitGoroutines(t, base)
	})
}

// TestInferPredictsLabelledBatches: Infer answers every batch with
// predictions whether or not it carries labels — a caller may hand it the
// batches it trained on — and an inference stores nothing.
func TestInferPredictsLabelledBatches(t *testing.T) {
	e := NewEngine(models.NewStore())
	src := func(seed int64, n int) *synthSource {
		return &synthSource{r: rand.New(rand.NewSource(seed)), batches: n, size: 32, fields: 4, vocab: 32}
	}
	out, err := e.Train(testSpec(false), TrainConfig{}, src(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.FineTune(out.MID, 0, armnet.FreezePrefixLayers, 0.02, src(2, 4)); err != nil {
		t.Fatal(err)
	}
	stored := func() string {
		var sb strings.Builder
		for _, ts := range e.Store.Versions(out.MID) {
			layers, _, err := e.Store.Load(out.MID, ts)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&sb, "%d %v\n", ts, layers)
		}
		return sb.String()
	}
	before := stored()
	s, stripped := src(3, 3), &SliceSource{}
	for b, ok := s.Next(); ok; b, ok = s.Next() {
		stripped.Batches = append(stripped.Batches, &Batch{X: b.X})
	}
	want, err := e.Infer(out.MID, 0, stripped)
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Infer(out.MID, 0, src(3, 3)) // the same rows, labels attached
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3*32 || fmt.Sprintf("%x", got) != fmt.Sprintf("%x", want) {
		t.Fatalf("labelled batches: %d predictions, differing from the %d of the same rows without labels", len(got), len(want))
	}
	if stored() != before {
		t.Fatal("an inference on labelled batches changed the stored model")
	}
}

func avg(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// auc is the area under the ROC curve of scores for binary labels: the share
// of (positive, negative) pairs the scores order correctly, a tie counting
// half. It is 0.5 when either class is absent.
func auc(scores, labels []float64) float64 {
	var right, pairs float64
	for i, pos := range scores {
		if labels[i] < 0.5 {
			continue
		}
		for j, neg := range scores {
			if labels[j] >= 0.5 {
				continue
			}
			pairs++
			switch {
			case pos > neg:
				right++
			case pos == neg:
				right += 0.5
			}
		}
	}
	if pairs == 0 {
		return 0.5
	}
	return right / pairs
}
