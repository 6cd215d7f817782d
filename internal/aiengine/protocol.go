// Package aiengine implements the paper's in-database AI ecosystem (§4.1):
// an engine that opens one dispatcher connection per task, AI runtimes
// reachable over real TCP (or in-process pipes), a binary data streaming
// protocol with a handshake that negotiates model and streaming parameters
// and window-based flow control, a streaming data loader that overlaps data
// preparation with training, and the model-manager operations (train /
// inference / fine-tune) backed by the layered model store. A task is a
// stream, not a kind: the runtime takes an optimization step on every batch
// that carries labels and answers every batch that does not with predictions.
package aiengine

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"neurdb/internal/models"
	"neurdb/internal/nn"
)

// Message types of the streaming protocol.
const (
	msgHandshake byte = iota + 1
	msgHandshakeAck
	msgBatch
	msgBatchAck
	msgFinish
	msgResult
	msgError
)

// TaskSpec is the handshake payload: model parameters (structure, arguments)
// and streaming parameters (window size), the two parameter groups the
// paper's handshake negotiates.
type TaskSpec struct {
	Model  models.Spec
	Window int // requested batches in flight
	LR     float64
	// FreezeUpTo splits the model: layers [0, n) are a frozen prefix no step
	// changes (and whose output the runtime memoizes), the rest train. 0
	// trains everything.
	FreezeUpTo int
	// InitWeights carries a stored model; empty starts from the spec's seed.
	InitWeights []nn.LayerWeights
}

// HandshakeAck returns the negotiated streaming parameters.
type HandshakeAck struct {
	Window int
}

// BatchAck acknowledges one processed batch, returning credit plus the
// batch's training loss or predictions. Like a batch it travels as a fixed
// little-endian frame (a task sends one per batch); handshake and result,
// one per task, are gob.
type BatchAck struct {
	Seq   int
	Loss  float64
	Preds []float64
}

// TaskResult is the final payload for a completed task. Losses and
// predictions are not in it: the acks delivered them batch by batch.
type TaskResult struct {
	Batches int
	Weights []nn.LayerWeights // nil unless a batch carried labels
}

// writeFrame writes a [type, len, payload] frame.
func writeFrame(w io.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) == 0 {
		return nil
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame into a payload of its own.
func readFrame(r io.Reader) (byte, []byte, error) { return readFrameInto(r, nil) }

// readFrameInto reads one frame, reusing buf's memory for the payload when it
// is large enough: for a reader that is done with a frame before the next.
func readFrameInto(r io.Reader, buf []byte) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > 1<<30 {
		return 0, nil, fmt.Errorf("aiengine: frame too large (%d bytes)", n)
	}
	payload := buf[:0]
	if uint32(cap(buf)) < n {
		payload = make([]byte, n)
	}
	payload = payload[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, err
	}
	return hdr[0], payload, nil
}

func gobEncode(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(data []byte, v any) error {
	return gob.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// appendBatch appends the wire format of x (and optional y) to buf: rows,
// xcols, ycols as uint32, then row-major float64 payloads.
func appendBatch(buf []byte, x, y *nn.Matrix) []byte {
	ycols := 0
	if y != nil {
		ycols = y.Cols
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.Rows))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(x.Cols))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ycols))
	for _, v := range x.Data {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	if y != nil {
		for _, v := range y.Data {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
	}
	return buf
}

// decodeBatch unpacks a batch frame into matrices taken from ws (nil
// allocates them).
func decodeBatch(buf []byte, ws *nn.Workspace) (x, y *nn.Matrix, err error) {
	if len(buf) < 12 {
		return nil, nil, fmt.Errorf("aiengine: short batch frame")
	}
	rows := uint64(binary.LittleEndian.Uint32(buf[0:]))
	xcols := uint64(binary.LittleEndian.Uint32(buf[4:]))
	ycols := uint64(binary.LittleEndian.Uint32(buf[8:]))
	// rows·(xcols+ycols) can overflow; the payload's value count divided by
	// the columns cannot. Rows without feature columns are no batch.
	vals, cols := uint64(len(buf)-12), xcols+ycols
	fits := rows == 0 && vals == 0 ||
		xcols > 0 && vals%8 == 0 && vals/8%cols == 0 && vals/8/cols == rows
	if !fits {
		return nil, nil, fmt.Errorf("aiengine: batch frame of %d bytes does not hold %d rows of %d+%d values", len(buf), rows, xcols, ycols)
	}
	x = ws.Get(int(rows), int(xcols))
	off := 12
	for i := range x.Data {
		x.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
		off += 8
	}
	if ycols > 0 {
		y = ws.Get(int(rows), int(ycols))
		for i := range y.Data {
			y.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
	}
	return x, y, nil
}

// appendBatchAck appends the ack's wire format to buf: seq and prediction
// count as uint32, then the loss and the predictions as float64.
func appendBatchAck(buf []byte, ack BatchAck) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(ack.Seq))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(ack.Preds)))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(ack.Loss))
	for _, v := range ack.Preds {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
	}
	return buf
}

// decodeBatchAck unpacks an ack frame.
func decodeBatchAck(buf []byte) (BatchAck, error) {
	if len(buf) < 16 {
		return BatchAck{}, fmt.Errorf("aiengine: short batch ack frame")
	}
	ack := BatchAck{
		Seq:  int(binary.LittleEndian.Uint32(buf[0:])),
		Loss: math.Float64frombits(binary.LittleEndian.Uint64(buf[8:])),
	}
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	if len(buf) != 16+8*n {
		return BatchAck{}, fmt.Errorf("aiengine: batch ack frame size %d, want %d", len(buf), 16+8*n)
	}
	if n > 0 {
		ack.Preds = make([]float64, n)
		for i := range ack.Preds {
			ack.Preds[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[16+8*i:]))
		}
	}
	return ack, nil
}
