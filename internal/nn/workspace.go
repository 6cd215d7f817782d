package nn

// Workspace hands out scratch matrices for one forward/backward pass and
// takes them all back at Reset, so a model that runs the same shapes step
// after step stops allocating once every buffer has grown to its size. A
// matrix from Get is valid until the next Reset and holds unspecified values:
// the caller overwrites every element. A nil *Workspace allocates a fresh
// zeroed matrix per Get, which is what layers outside a workspace-owning
// model use.
type Workspace struct {
	mats []*Matrix
	next int
}

// Reset makes every matrix handed out so far available again.
func (w *Workspace) Reset() { w.next = 0 }

// Get returns a rows×cols scratch matrix.
func (w *Workspace) Get(rows, cols int) *Matrix {
	if w == nil {
		return NewMatrix(rows, cols)
	}
	if w.next == len(w.mats) {
		w.mats = append(w.mats, &Matrix{})
	}
	m := w.mats[w.next]
	w.next++
	if n := rows * cols; cap(m.Data) < n {
		m.Data = make([]float64, n)
	} else {
		m.Data = m.Data[:n]
	}
	m.Rows, m.Cols = rows, cols
	return m
}
