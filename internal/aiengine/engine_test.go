package aiengine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net"
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
	out, err := e.Train(testSpec(false), TrainConfig{Name: "m1", BatchSize: 64, Window: 8, LR: 0.01}, src)
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
	if store.LatestTS(out.MID) != out.TS {
		t.Fatal("stored version mismatch")
	}
	if v, ok := store.FindViewByName("m1"); !ok || v.MID != out.MID {
		t.Fatalf("view m1 = %+v, %v", v, ok)
	}
}

func TestTrainOverRealTCP(t *testing.T) {
	rt, addr, err := StartRuntime()
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Stop()
	store := models.NewStore()
	e := NewEngine(store)
	e.AddRuntime(addr)
	src := &synthSource{r: rand.New(rand.NewSource(2)), batches: 20, size: 32, fields: 4, vocab: 32}
	out, err := e.Train(testSpec(false), TrainConfig{BatchSize: 32, Window: 4, LR: 0.01}, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 20 {
		t.Fatalf("batches = %d", out.Batches)
	}
}

func TestInferenceMatchesTraining(t *testing.T) {
	store := models.NewStore()
	e := NewEngine(store)
	src := &synthSource{r: rand.New(rand.NewSource(3)), batches: 80, size: 64, fields: 4, vocab: 32, cls: true}
	out, err := e.Train(testSpec(true), TrainConfig{BatchSize: 64, Window: 8, LR: 0.02}, src)
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
	auc := nn.AUC(preds, labels)
	if auc < 0.75 {
		t.Fatalf("AUC = %.3f, expected learning signal", auc)
	}
}

func TestFineTunePersistsOnlyTailLayers(t *testing.T) {
	store := models.NewStore()
	e := NewEngine(store)
	src := &synthSource{r: rand.New(rand.NewSource(5)), batches: 30, size: 64, fields: 4, vocab: 32}
	out, err := e.Train(testSpec(false), TrainConfig{BatchSize: 64, Window: 8, LR: 0.01}, src)
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

func TestBaselineTrainsButSlowerPath(t *testing.T) {
	// The baseline must converge too (same model) — only its data path
	// differs. Fig 6 measures the performance delta; here we verify
	// functional equivalence.
	rows := make([]rel.Row, 0, 2048)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 2048; i++ {
		a, b := r.Intn(32), r.Intn(32)
		label := float64(a%7)/7.0*0.5 + float64(b%7)/7.0*0.5
		rows = append(rows, rel.Row{rel.Int(int64(a)), rel.Int(int64(b)), rel.Float(label)})
	}
	src := &rowChunks{rows: rows, size: 128}
	feat := func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		x := nn.NewMatrix(len(rs), 2)
		y := nn.NewMatrix(len(rs), 1)
		for i, row := range rs {
			x.Set(i, 0, row[0].AsFloat())
			x.Set(i, 1, row[1].AsFloat())
			y.Set(i, 0, row[2].AsFloat())
		}
		return x, y
	}
	spec := models.Spec{Arch: "armnet", Fields: 2, Vocab: 32, EmbDim: 4, Hidden: 16, Seed: 1}
	out, err := BaselineTrain(spec, TrainConfig{LR: 0.02}, src, feat)
	if err != nil {
		t.Fatal(err)
	}
	if out.Batches != 16 || out.Samples != 2048 {
		t.Fatalf("batches=%d samples=%d", out.Batches, out.Samples)
	}
	if out.Losses[len(out.Losses)-1] >= out.Losses[0] {
		t.Fatalf("baseline loss did not decrease: %v -> %v", out.Losses[0], out.Losses[len(out.Losses)-1])
	}
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

func TestTextRoundTrip(t *testing.T) {
	rows := []rel.Row{
		{rel.Int(1), rel.Float(2.5), rel.Text("abc"), rel.Bool(true), rel.Null()},
		{rel.Int(-3), rel.Float(0), rel.Text("x"), rel.Bool(false), rel.Int(9)},
	}
	text := encodeRowsText(rows)
	back, err := decodeRowsText(text, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 2 {
		t.Fatalf("rows = %d", len(back))
	}
	if back[0][0].AsFloat() != 1 || back[0][1].AsFloat() != 2.5 || back[0][2].S != "abc" {
		t.Fatalf("row0 = %v", back[0])
	}
	if !back[0][3].AsBool() || !back[0][4].IsNull() {
		t.Fatalf("row0 tail = %v", back[0])
	}
	if _, err := decodeRowsText("1,2\n", 3); err == nil {
		t.Fatal("arity mismatch should error")
	}
}

func TestProtocolErrors(t *testing.T) {
	// Runtime rejects unknown architecture via msgError.
	local, remote := net.Pipe()
	go func() {
		defer remote.Close()
		ServeTask(remote, nil)
	}()
	spec := TaskSpec{Model: models.Spec{Arch: "nope"}}
	_, _, err := RunTask(local, spec, &SliceSource{})
	if err == nil {
		t.Fatal("unknown arch should error")
	}
	local.Close()

	// A stream without a labelled batch trains nothing: the runtime returns
	// no weights, and an operator that was to store a model refuses.
	local2, remote2 := net.Pipe()
	go func() {
		defer remote2.Close()
		ServeTask(remote2, nil)
	}()
	unlabelledOnly := func() *SliceSource { return &SliceSource{Batches: []*Batch{{X: nn.NewMatrix(8, 4)}}} }
	out, weights, err := RunTask(local2, TaskSpec{Model: testSpec(false)}, unlabelledOnly())
	if err != nil || weights != nil || len(out.Preds) != 8 || len(out.Losses) != 0 || out.Batches != 1 {
		t.Fatalf("unlabelled stream: %+v, %d weight layers, %v", out, len(weights), err)
	}
	local2.Close()
	e := NewEngine(models.NewStore())
	if _, err := e.Train(testSpec(false), TrainConfig{Name: "empty"}, unlabelledOnly()); err == nil || !strings.Contains(err.Error(), "no labelled batch") {
		t.Fatalf("training on an unlabelled stream: %v", err)
	}
	if _, ok := e.Store.FindViewByName("empty"); ok {
		t.Fatal("a task that trained nothing bound a model view")
	}

	// A batch of another width than the model's is an error, not a panic
	// inside a matrix product.
	local3, remote3 := net.Pipe()
	go func() {
		defer remote3.Close()
		ServeTask(remote3, nil)
	}()
	narrow := &SliceSource{Batches: []*Batch{{X: nn.NewMatrix(8, 2), Y: nn.NewMatrix(8, 1)}}}
	_, _, err = RunTask(local3, TaskSpec{Model: testSpec(false)}, narrow)
	if err == nil || !strings.Contains(err.Error(), "fields") {
		t.Fatalf("a 2-field batch for a 4-field model: %v", err)
	}
	local3.Close()
}

func TestBatchCodecRoundTrip(t *testing.T) {
	x := nn.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := nn.FromRows([][]float64{{9}, {8}})
	buf := appendBatch(nil, x, y)
	x2, y2, err := decodeBatch(buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data {
		if x2.Data[i] != x.Data[i] {
			t.Fatal("x mismatch")
		}
	}
	for i := range y.Data {
		if y2.Data[i] != y.Data[i] {
			t.Fatal("y mismatch")
		}
	}
	// No labels.
	buf = appendBatch(nil, x, nil)
	_, y3, err := decodeBatch(buf, nil)
	if err != nil || y3 != nil {
		t.Fatalf("no-label decode: %v %v", y3, err)
	}
	// Corrupt.
	if _, _, err := decodeBatch(buf[:5], nil); err == nil {
		t.Fatal("short frame should error")
	}
	if _, _, err := decodeBatch(append(buf, 1, 2, 3), nil); err == nil {
		t.Fatal("oversized frame should error")
	}
}

// TestBatchFrameSizeDoesNotOverflow is the regression test for a 12-byte
// frame that crashed the runtime: 2³¹ rows of 2³⁰ columns need 2⁶⁴ bytes of
// values, which wrapped to 0 in the size check, so the frame passed and the
// matrix allocation panicked inside ServeTask's goroutine. Rows without
// feature columns are refused as well: a model would size its output by them.
func TestBatchFrameSizeDoesNotOverflow(t *testing.T) {
	header := func(rows, xcols, ycols uint32) []byte {
		buf := binary.LittleEndian.AppendUint32(nil, rows)
		buf = binary.LittleEndian.AppendUint32(buf, xcols)
		return binary.LittleEndian.AppendUint32(buf, ycols)
	}
	for _, buf := range [][]byte{
		header(1<<31, 1<<30, 0),
		header(1<<31, 0, 1<<30),
		header(1<<32-1, 1<<32-1, 1<<32-1),
		append(header(1<<29, 0, 1), make([]byte, 8)...),
		header(1<<32-1, 0, 0),
	} {
		if x, _, err := decodeBatch(buf, nil); err == nil {
			t.Fatalf("frame %x decoded to a %dx%d batch", buf, x.Rows, x.Cols)
		}
	}
	if x, y, err := decodeBatch(header(0, 3, 1), nil); err != nil || x.Rows != 0 || y.Rows != 0 {
		t.Fatalf("an empty batch: %v", err)
	}
}

// FuzzBatchDecode: the runtime decodes batch frames from whatever connects
// to it and the engine decodes ack frames from a runtime; neither decoder may
// panic, and a frame either decodes to the values it holds or is refused.
func FuzzBatchDecode(f *testing.F) {
	x := nn.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	f.Add(appendBatch(nil, x, nn.FromRows([][]float64{{9}, {8}})))
	f.Add(appendBatch(nil, x, nil))
	f.Add(appendBatch(nil, nn.NewMatrix(0, 3), nil))
	f.Add(appendBatchAck(nil, BatchAck{Seq: 3, Loss: 0.5}))
	f.Add(appendBatchAck(nil, BatchAck{Seq: 1, Preds: []float64{0.25, -1}}))
	f.Add([]byte{0, 0, 0, 0x80, 0, 0, 0, 0x40, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, buf []byte) {
		var ws nn.Workspace
		if x, y, err := decodeBatch(buf, &ws); err == nil {
			n := len(x.Data)
			if y != nil {
				n += len(y.Data)
			}
			if 12+8*n != len(buf) {
				t.Fatalf("%d-byte frame decoded to %d values", len(buf), n)
			}
		}
		if ack, err := decodeBatchAck(buf); err == nil && 16+8*len(ack.Preds) != len(buf) {
			t.Fatalf("%d-byte ack decoded to %d predictions", len(buf), len(ack.Preds))
		}
	})
}

func TestBatchAckCodecRoundTrip(t *testing.T) {
	for _, ack := range []BatchAck{
		{Seq: 7, Loss: 0.125},
		{Seq: 1 << 20, Preds: []float64{1.5, -2.25, 0}},
	} {
		buf := appendBatchAck(nil, ack)
		got, err := decodeBatchAck(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Seq != ack.Seq || got.Loss != ack.Loss || fmt.Sprint(got.Preds) != fmt.Sprint(ack.Preds) {
			t.Fatalf("round trip: %+v, want %+v", got, ack)
		}
		if _, err := decodeBatchAck(buf[:len(buf)-1]); err == nil {
			t.Fatal("truncated ack should error")
		}
		if _, err := decodeBatchAck(append(buf, 0)); err == nil {
			t.Fatal("oversized ack should error")
		}
	}
	if _, err := decodeBatchAck(nil); err == nil {
		t.Fatal("empty ack should error")
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
		tr, err := e.Train(spec, TrainConfig{BatchSize: 32, Window: 4, LR: 0.01}, src(seed, 12))
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
		out, err := e.Train(spec, TrainConfig{BatchSize: 32, Window: 4, LR: 0.01},
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

// failingRuntime acknowledges the handshake, takes in a full window of
// batches — as a transport with buffers would — and answers the first with
// msgError, like a runtime whose step failed. The sender is then out of
// credits with no acknowledgement ever coming.
func failingRuntime(conn io.ReadWriteCloser) {
	defer conn.Close()
	const window = 2
	if _, _, err := readFrame(conn); err != nil {
		return
	}
	ack, _ := gobEncode(HandshakeAck{Window: window})
	_ = writeFrame(conn, msgHandshakeAck, ack)
	for i := 0; i < window; i++ {
		if _, _, err := readFrame(conn); err != nil {
			return
		}
	}
	msg, _ := gobEncode("step failed")
	_ = writeFrame(conn, msgError, msg)
}

// TestFailedTaskLeaksNoGoroutine is the regression test for two leaks: a
// task that fails mid-stream left RunTask's sender waiting for a credit for
// ever, and a task that fails before streaming (an unknown model) left the
// streaming loader's producer waiting on its channel, holding every
// training row. A task that trains and then fails while predicting is the
// third way to stop early; it must also store nothing.
func TestFailedTaskLeaksNoGoroutine(t *testing.T) {
	rows := make([]rel.Row, 4096)
	for i := range rows {
		rows[i] = rel.Row{rel.Int(int64(i % 32)), rel.Float(0.5)}
	}
	feat := func(rs []rel.Row) (*nn.Matrix, *nn.Matrix) {
		return nn.NewMatrix(len(rs), 1), nn.NewMatrix(len(rs), 1)
	}
	t.Run("runtime error mid-stream", func(t *testing.T) {
		base := runtime.NumGoroutine()
		loader := NewStreamingLoader(&rowChunks{rows: rows, size: 64}, feat, 4)
		local, remote := net.Pipe()
		go failingRuntime(remote)
		_, _, err := RunTask(local, TaskSpec{Model: testSpec(false), Window: 2}, loader)
		if err == nil {
			t.Fatal("the runtime's error did not fail the task")
		}
		local.Close()
		loader.Close()
		waitGoroutines(t, base)
	})
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
		first, err := e.Train(spec, TrainConfig{Window: 2},
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
		if _, err := e.Train(spec, TrainConfig{Name: "m", Window: 2}, loader); err == nil || !strings.Contains(err.Error(), "fields") {
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
	out, err := e.Train(testSpec(false), TrainConfig{Window: 4}, src(1, 10))
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
