package learnedopt

import (
	"fmt"
	"math"

	"neurdb/internal/nn"
)

// The allocating matrix helpers and losses the attention blocks, the model
// and the Fig. 8 baselines train with. Each product wraps one of nn's
// destination-passing kernels, so there is one implementation of each.

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *nn.Matrix {
	if len(rows) == 0 {
		return nn.NewMatrix(0, 0)
	}
	m := nn.NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("learnedopt: FromRows ragged input")
		}
		copy(m.Row(i), r)
	}
	return m
}

// MatMul returns a×b.
func MatMul(a, b *nn.Matrix) *nn.Matrix {
	out := nn.NewMatrix(a.Rows, b.Cols)
	nn.MatMulBiasInto(out, a, b, nil)
	return out
}

// MatMulBT returns a×bᵀ.
func MatMulBT(a, b *nn.Matrix) *nn.Matrix {
	out := nn.NewMatrix(a.Rows, b.Rows)
	nn.MatMulBTInto(out, a, b)
	return out
}

// MatMulAT returns aᵀ×b.
func MatMulAT(a, b *nn.Matrix) *nn.Matrix {
	out := nn.NewMatrix(a.Cols, b.Cols)
	nn.MatMulATAcc(out, a, b, nil)
	return out
}

// Add returns a+b elementwise.
func Add(a, b *nn.Matrix) *nn.Matrix {
	checkSameShape("Add", a, b)
	out := nn.NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] + b.Data[i]
	}
	return out
}

// Scale returns s·a.
func Scale(a *nn.Matrix, s float64) *nn.Matrix {
	out := nn.NewMatrix(a.Rows, a.Cols)
	for i := range a.Data {
		out.Data[i] = a.Data[i] * s
	}
	return out
}

// SoftmaxRows applies softmax independently to every row.
func SoftmaxRows(a *nn.Matrix) *nn.Matrix {
	out := nn.NewMatrix(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		orow := out.Row(i)
		maxv := math.Inf(-1)
		for _, v := range row {
			if v > maxv {
				maxv = v
			}
		}
		var sum float64
		for j, v := range row {
			e := math.Exp(v - maxv)
			orow[j] = e
			sum += e
		}
		if sum == 0 {
			sum = 1
		}
		for j := range orow {
			orow[j] /= sum
		}
	}
	return out
}

// SoftmaxBackwardRows computes the gradient of softmax applied row-wise:
// dx = y ⊙ (dy - rowsum(dy ⊙ y)).
func SoftmaxBackwardRows(y, dy *nn.Matrix) *nn.Matrix {
	checkSameShape("SoftmaxBackwardRows", y, dy)
	out := nn.NewMatrix(y.Rows, y.Cols)
	for i := 0; i < y.Rows; i++ {
		yr, dyr, or := y.Row(i), dy.Row(i), out.Row(i)
		var dot float64
		for j := range yr {
			dot += yr[j] * dyr[j]
		}
		for j := range yr {
			or[j] = yr[j] * (dyr[j] - dot)
		}
	}
	return out
}

// MeanRows returns the column-wise mean as a 1×Cols matrix.
func MeanRows(a *nn.Matrix) *nn.Matrix {
	out := nn.NewMatrix(1, a.Cols)
	if a.Rows == 0 {
		return out
	}
	for i := 0; i < a.Rows; i++ {
		for j, v := range a.Row(i) {
			out.Data[j] += v
		}
	}
	inv := 1.0 / float64(a.Rows)
	for j := range out.Data {
		out.Data[j] *= inv
	}
	return out
}

// MSELoss returns the mean-squared-error loss over all elements and its
// gradient w.r.t. pred (Bao's value network).
func MSELoss(pred, target *nn.Matrix) (float64, *nn.Matrix) {
	grad := nn.NewMatrix(pred.Rows, pred.Cols)
	return nn.MSELossInto(grad, pred, target), grad
}

// BCEWithLogitsLoss returns the mean binary-cross-entropy loss of raw logits
// and its gradient w.r.t. the logits (Lero's comparator).
func BCEWithLogitsLoss(logits, target *nn.Matrix) (float64, *nn.Matrix) {
	grad := nn.NewMatrix(logits.Rows, logits.Cols)
	return nn.BCEWithLogitsLossInto(grad, logits, target), grad
}

// SoftmaxCELoss computes softmax cross-entropy per row given integer class
// labels; returns the mean loss and gradient w.r.t. the logits. It trains
// plan selection: pick the best candidate plan.
func SoftmaxCELoss(logits *nn.Matrix, labels []int) (float64, *nn.Matrix) {
	if len(labels) != logits.Rows {
		panic("learnedopt: SoftmaxCELoss label count mismatch")
	}
	probs := SoftmaxRows(logits)
	grad := nn.NewMatrix(logits.Rows, logits.Cols)
	n := float64(logits.Rows)
	if n == 0 {
		return 0, grad
	}
	var loss float64
	for i := 0; i < logits.Rows; i++ {
		p := probs.Row(i)
		y := labels[i]
		loss += -math.Log(math.Max(p[y], 1e-12))
		grow := grad.Row(i)
		for j, pj := range p {
			grow[j] = pj / n
		}
		grow[y] -= 1 / n
	}
	return loss / n, grad
}

func checkSameShape(op string, a, b *nn.Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("learnedopt: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}
