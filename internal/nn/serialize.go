package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
)

// LayerWeights is the serializable snapshot of a single layer's parameters.
// It is the unit of storage in the layered model store (paper Fig. 3): the
// model manager persists one LayerWeights blob per (MID, LID, timestamp).
type LayerWeights struct {
	Name   string
	Shapes [][2]int
	Datas  [][]float64
}

// SnapshotParams captures the current weights of a parameter list.
func SnapshotParams(name string, params []*Param) LayerWeights {
	lw := LayerWeights{Name: name}
	for _, p := range params {
		lw.Shapes = append(lw.Shapes, [2]int{p.W.Rows, p.W.Cols})
		data := make([]float64, len(p.W.Data))
		copy(data, p.W.Data)
		lw.Datas = append(lw.Datas, data)
	}
	return lw
}

// RestoreParams writes a snapshot back into a parameter list; shapes must
// match exactly.
func RestoreParams(lw LayerWeights, params []*Param) error {
	if len(lw.Shapes) != len(params) {
		return fmt.Errorf("nn: restore %q: have %d tensors, want %d", lw.Name, len(lw.Shapes), len(params))
	}
	for i, p := range params {
		if lw.Shapes[i][0] != p.W.Rows || lw.Shapes[i][1] != p.W.Cols {
			return fmt.Errorf("nn: restore %q tensor %d: shape %v, want %dx%d",
				lw.Name, i, lw.Shapes[i], p.W.Rows, p.W.Cols)
		}
		copy(p.W.Data, lw.Datas[i])
	}
	return nil
}

// EncodeWeights serializes a layer snapshot to bytes (gob).
func EncodeWeights(lw LayerWeights) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(lw); err != nil {
		return nil, fmt.Errorf("nn: encode weights: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeWeights deserializes a layer snapshot.
func DecodeWeights(data []byte) (LayerWeights, error) {
	var lw LayerWeights
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&lw); err != nil {
		return LayerWeights{}, fmt.Errorf("nn: decode weights: %w", err)
	}
	return lw, nil
}

// SnapshotSequential snapshots every layer of a Sequential, one LayerWeights
// per layer (including parameter-free layers, which snapshot empty — keeping
// layer indexes aligned with the model store's LID space).
func SnapshotSequential(s *Sequential) []LayerWeights {
	out := make([]LayerWeights, len(s.Layers))
	for i, l := range s.Layers {
		out[i] = SnapshotParams(fmt.Sprintf("layer%d", i), l.Params())
	}
	return out
}

// RestoreSequential restores per-layer snapshots into a Sequential with the
// same architecture.
func RestoreSequential(s *Sequential, layers []LayerWeights) error {
	if len(layers) != len(s.Layers) {
		return fmt.Errorf("nn: restore sequential: have %d layers, want %d", len(layers), len(s.Layers))
	}
	for i, l := range s.Layers {
		if err := RestoreParams(layers[i], l.Params()); err != nil {
			return err
		}
	}
	return nil
}
