package nn

import "math"

// MSELoss returns the mean-squared-error loss over all elements and the
// gradient w.r.t. pred. Used by PREDICT VALUE OF (regression) tasks.
func MSELoss(pred, target *Matrix) (float64, *Matrix) {
	grad := NewMatrix(pred.Rows, pred.Cols)
	return MSELossInto(grad, pred, target), grad
}

// MSELossInto is MSELoss writing the gradient into grad (pred's shape).
func MSELossInto(grad, pred, target *Matrix) float64 {
	checkSameShape("MSELoss", pred, target)
	checkSameShape("MSELoss", pred, grad)
	n := float64(len(pred.Data))
	if n == 0 {
		return 0
	}
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// BCEWithLogitsLoss returns the mean binary-cross-entropy loss computed from
// raw logits (numerically stable) and its gradient w.r.t. the logits. Used
// by PREDICT CLASS OF (binary classification) tasks.
func BCEWithLogitsLoss(logits, target *Matrix) (float64, *Matrix) {
	grad := NewMatrix(logits.Rows, logits.Cols)
	return BCEWithLogitsLossInto(grad, logits, target), grad
}

// BCEWithLogitsLossInto is BCEWithLogitsLoss writing the gradient into grad
// (logits' shape).
func BCEWithLogitsLossInto(grad, logits, target *Matrix) float64 {
	checkSameShape("BCEWithLogitsLoss", logits, target)
	checkSameShape("BCEWithLogitsLoss", logits, grad)
	n := float64(len(logits.Data))
	if n == 0 {
		return 0
	}
	var loss float64
	for i := range logits.Data {
		z, y := logits.Data[i], target.Data[i]
		// loss = max(z,0) - z*y + log(1+exp(-|z|))
		loss += math.Max(z, 0) - z*y + math.Log1p(math.Exp(-math.Abs(z)))
		p := 1 / (1 + math.Exp(-z))
		grad.Data[i] = (p - y) / n
	}
	return loss / n
}

// SoftmaxCELoss computes softmax cross-entropy per row given integer class
// labels; returns the mean loss and gradient w.r.t. the logits. Used to
// train plan-selection (pick the best candidate plan) and the CC decision
// model's supervised pre-training.
func SoftmaxCELoss(logits *Matrix, labels []int) (float64, *Matrix) {
	if len(labels) != logits.Rows {
		panic("nn: SoftmaxCELoss label count mismatch")
	}
	probs := SoftmaxRows(logits)
	grad := NewMatrix(logits.Rows, logits.Cols)
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
