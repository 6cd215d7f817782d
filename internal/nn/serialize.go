package nn

import "fmt"

// LayerWeights is one layer's parameters copied out of a model: the unit of
// storage in the layered model store (paper Fig. 3), which keeps one
// LayerWeights per (MID, LID, timestamp) as it was saved. Shapes[i] is tensor
// i's rows and columns and Datas[i] its values, row-major; a parameter-free
// layer has no tensors. A snapshot never aliases a live parameter: it is
// copied out of one and copied back into one.
type LayerWeights struct {
	Shapes [][2]int
	Datas  [][]float64
}

// SnapshotSequential copies every layer of a Sequential out, one LayerWeights
// per layer (including parameter-free layers, which snapshot empty — keeping
// layer indexes aligned with the model store's LID space).
func SnapshotSequential(s *Sequential) []LayerWeights {
	out := make([]LayerWeights, len(s.Layers))
	for i, l := range s.Layers {
		params := l.Params()
		lw := LayerWeights{Shapes: make([][2]int, len(params)), Datas: make([][]float64, len(params))}
		for j, p := range params {
			lw.Shapes[j] = [2]int{p.W.Rows, p.W.Cols}
			lw.Datas[j] = make([]float64, len(p.W.Data))
			copy(lw.Datas[j], p.W.Data)
		}
		out[i] = lw
	}
	return out
}

// RestoreSequential copies per-layer snapshots into a Sequential with the
// same architecture; every tensor's shape must match exactly.
func RestoreSequential(s *Sequential, layers []LayerWeights) error {
	if len(layers) != len(s.Layers) {
		return fmt.Errorf("nn: restore sequential: have %d layers, want %d", len(layers), len(s.Layers))
	}
	for i, l := range s.Layers {
		lw, params := layers[i], l.Params()
		if len(lw.Shapes) != len(params) {
			return fmt.Errorf("nn: restore layer %d: have %d tensors, want %d", i, len(lw.Shapes), len(params))
		}
		for j, p := range params {
			if lw.Shapes[j] != [2]int{p.W.Rows, p.W.Cols} {
				return fmt.Errorf("nn: restore layer %d tensor %d: shape %v, want %dx%d", i, j, lw.Shapes[j], p.W.Rows, p.W.Cols)
			}
			copy(p.W.Data, lw.Datas[j])
		}
	}
	return nil
}
