package aiengine

import (
	"fmt"
	"io"
	"net"
	"sync"

	"neurdb/internal/armnet"
	"neurdb/internal/models"
	"neurdb/internal/nn"
)

// Runtime is an AI runtime node: it accepts task connections from
// dispatchers and executes their tasks — train, fine-tune, inference, or a
// PREDICT's fine-tune-then-answer, all one loop over the batch stream. In the
// paper's architecture these run on external (GPU) nodes; here they run as
// goroutines behind real TCP sockets on localhost, or in-process pipes.
type Runtime struct {
	ln   net.Listener
	wg   sync.WaitGroup
	memo *armnet.PrefixMemo // shared by every task this node serves
}

// StartRuntime listens on a localhost TCP port and serves tasks until Stop.
func StartRuntime() (*Runtime, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("aiengine: runtime listen: %w", err)
	}
	rt := &Runtime{ln: ln, memo: armnet.NewPrefixMemo(armnet.PrefixMemoBytes)}
	rt.wg.Add(1)
	go rt.acceptLoop()
	return rt, ln.Addr().String(), nil
}

func (rt *Runtime) acceptLoop() {
	defer rt.wg.Done()
	for {
		conn, err := rt.ln.Accept()
		if err != nil {
			return // Stop closed the listener
		}
		rt.wg.Add(1)
		go func() {
			defer rt.wg.Done()
			defer conn.Close()
			ServeTask(conn, rt.memo)
		}()
	}
}

// Stop shuts the runtime down.
func (rt *Runtime) Stop() {
	rt.ln.Close()
	rt.wg.Wait()
}

// buildModel constructs the model described by a spec.
func buildModel(spec models.Spec) (*armnet.Model, error) {
	switch spec.Arch {
	case "armnet", "":
		return armnet.New(spec.Fields, spec.Vocab, spec.EmbDim, spec.Hidden, spec.Classification, spec.Seed), nil
	default:
		return nil, fmt.Errorf("aiengine: unknown architecture %q", spec.Arch)
	}
}

// ServeTask handles one task connection end-to-end (exported so in-process
// transports can drive it over a net.Pipe). memo is the node's frozen-prefix
// memo, shared by its tasks; nil computes every prefix.
func ServeTask(conn io.ReadWriter, memo *armnet.PrefixMemo) {
	if err := serveTask(conn, memo); err != nil {
		payload, _ := gobEncode(err.Error())
		_ = writeFrame(conn, msgError, payload)
	}
}

func serveTask(conn io.ReadWriter, memo *armnet.PrefixMemo) error {
	typ, payload, err := readFrame(conn)
	if err != nil {
		return fmt.Errorf("read handshake: %w", err)
	}
	if typ != msgHandshake {
		return fmt.Errorf("expected handshake, got frame type %d", typ)
	}
	var spec TaskSpec
	if err := gobDecode(payload, &spec); err != nil {
		return fmt.Errorf("decode handshake: %w", err)
	}
	// Negotiate streaming parameters: clamp the window to a sane range.
	window := spec.Window
	if window < 1 {
		window = 1
	}
	if window > 1024 {
		window = 1024
	}
	ackPayload, err := gobEncode(HandshakeAck{Window: window})
	if err != nil {
		return err
	}
	if err := writeFrame(conn, msgHandshakeAck, ackPayload); err != nil {
		return err
	}

	model, err := buildModel(spec.Model)
	if err != nil {
		return err
	}
	if len(spec.InitWeights) > 0 {
		if err := model.Restore(spec.InitWeights); err != nil {
			return fmt.Errorf("restore weights: %w", err)
		}
	}
	// The model runs as frozen prefix → head, split where the dispatcher
	// says. Tasks that freeze the same prefix of the same weights — the
	// fine-tunes of one model, and the inferences between them — share memo
	// entries.
	model.Freeze(spec.FreezeUpTo)
	model.UseMemo(memo)
	lr := spec.LR
	if lr == 0 {
		lr = 0.01
	}
	opt := nn.NewAdam(lr)

	var result TaskResult
	trained := false
	// A batch is consumed before the next frame is read, so frame, matrices
	// and acknowledgement live in buffers the task reuses.
	var frameBuf, ackBuf []byte
	var batchWS nn.Workspace
	for {
		typ, payload, err := readFrameInto(conn, frameBuf)
		if err != nil {
			return fmt.Errorf("read batch: %w", err)
		}
		frameBuf = payload
		switch typ {
		case msgBatch:
			batchWS.Reset()
			x, y, err := decodeBatch(payload, &batchWS)
			if err != nil {
				return err
			}
			if x.Cols != model.Fields {
				return fmt.Errorf("batch has %d fields, the model %d", x.Cols, model.Fields)
			}
			// The batch says what it is for: labels train, none predict.
			ack := BatchAck{Seq: result.Batches}
			if y != nil {
				ack.Loss = model.TrainBatch(x, y, opt)
				trained = true
			} else {
				ack.Preds = model.Predict(x).Data // the model's scratch: encoded below, before its next call
			}
			result.Batches++
			ackBuf = appendBatchAck(ackBuf[:0], ack)
			if err := writeFrame(conn, msgBatchAck, ackBuf); err != nil {
				return err
			}
		case msgFinish:
			if trained {
				result.Weights = model.Snapshot()
			}
			payload, err := gobEncode(result)
			if err != nil {
				return err
			}
			return writeFrame(conn, msgResult, payload)
		default:
			return fmt.Errorf("unexpected frame type %d mid-task", typ)
		}
	}
}
