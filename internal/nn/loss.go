package nn

import "math"

// MSELossInto returns the mean-squared-error loss over all elements and
// writes its gradient w.r.t. pred into grad (pred's shape). Used by PREDICT
// VALUE OF (regression) tasks.
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
		loss += float64(d * d)
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// BCEWithLogitsLossInto returns the mean binary-cross-entropy loss computed
// from raw logits (numerically stable) and writes its gradient w.r.t. the
// logits into grad (logits' shape). Used by PREDICT CLASS OF (binary
// classification) tasks.
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
		loss += math.Max(z, 0) - float64(z*y) + math.Log1p(math.Exp(-math.Abs(z)))
		p := 1 / (1 + math.Exp(-z))
		grad.Data[i] = (p - y) / n
	}
	return loss / n
}
