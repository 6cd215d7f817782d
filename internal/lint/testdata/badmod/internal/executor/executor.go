// Package executor seeds batchalias violations for the neurdb-lint fixture
// module: scratch batches must not escape the iteration that produced them.
package executor

import "neurdb/internal/rel"

type op struct {
	saved []rel.Row
	batch *rel.Batch
}

var globalRows []rel.Row

func consume(b *rel.Batch) {}

// captureRows retains the recycled Rows slice in a struct field.
func (o *op) captureRows(b *rel.Batch) {
	o.saved = b.Rows // want batchalias:"retains a rel.Batch Rows slice"
}

// captureResliced aliases the same backing array through a re-slice.
func (o *op) captureResliced(b *rel.Batch, n int) {
	o.saved = b.Rows[:n] // want batchalias:"retains a rel.Batch Rows slice"
}

// captureBatch retains the batch pointer itself.
func (o *op) captureBatch(b *rel.Batch) {
	o.batch = b // want batchalias:"retains a \*rel.Batch produced elsewhere"
}

// leakGlobal escapes into a package variable.
func leakGlobal(b *rel.Batch) {
	globalRows = b.Rows // want batchalias:"retains a rel.Batch Rows slice"
}

// spawnCapture reads the batch from a goroutine while the caller refills it.
func spawnCapture(b *rel.Batch) {
	go func() {
		consume(b) // want batchalias:"goroutine captures \*rel.Batch b"
	}()
}

// captureClone copies before retaining — clean.
func (o *op) captureClone(b *rel.Batch) {
	o.saved = append([]rel.Row(nil), b.Rows...)
}

// localUse keeps everything inside the iteration — clean.
func localUse(b *rel.Batch) int {
	rows := b.Rows
	return len(rows)
}
