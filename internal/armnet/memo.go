package armnet

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"neurdb/internal/nn"
)

// PrefixMemoBytes bounds a PrefixMemo. An entry of the default PREDICT model
// (three fields, 32 outputs) is ~330 bytes, so this holds ~100,000 distinct
// feature tuples — a dozen sliding windows' worth.
const PrefixMemoBytes = 32 << 20

// memoEntryOverhead is what an entry costs beyond its key and its outputs:
// map slot, string header, allocator rounding.
const memoEntryOverhead = 48

// PrefixMemo keeps the frozen prefix's output per input row, for the frozen
// weights it last saw. The prefix is a pure function of those weights and of
// the row, so an entry found under the same weight hash and the same row
// bytes is the value a recomputation would produce, bit for bit; the memo
// only ever saves work. One table serves fine-tune and inference tasks, so
// the rows an inference saw first are hits for the fine-tunes that follow.
// It is emptied wholesale when it would outgrow its bound and when the
// weight hash changes — successive fine-tunes of one model share a prefix,
// a retrain or another model starts over.
type PrefixMemo struct {
	mu      sync.Mutex
	limit   int
	weights [sha256.Size]byte
	cols    int
	rows    map[string]int // input row bytes → row of out
	out     []float64
	size    int
	key     []byte // scratch
	hits    uint64
	misses  uint64
}

// NewPrefixMemo returns an empty memo that holds at most limit bytes
// (PrefixMemoBytes everywhere outside tests).
func NewPrefixMemo(limit int) *PrefixMemo {
	return &PrefixMemo{limit: limit, rows: make(map[string]int)}
}

// Stats returns how many rows lookups found and did not find.
func (c *PrefixMemo) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// target points the memo at a prefix, emptying it if that is not the one its
// entries belong to. Callers hold mu.
func (c *PrefixMemo) target(weights [sha256.Size]byte, cols int) {
	if weights != c.weights || cols != c.cols {
		c.weights, c.cols = weights, cols
		c.empty()
	}
}

func (c *PrefixMemo) empty() {
	clear(c.rows)
	c.out, c.size = c.out[:0], 0
}

// rowKey renders row i of x as map-key bytes in c.key.
func (c *PrefixMemo) rowKey(x *nn.Matrix, i int) []byte {
	c.key = c.key[:0]
	for _, v := range x.Row(i) {
		c.key = binary.LittleEndian.AppendUint64(c.key, math.Float64bits(v))
	}
	return c.key
}

// lookup copies the memoized prefix output of every row of x it holds into
// the same row of h and appends the indexes of the others to miss.
func (c *PrefixMemo) lookup(weights [sha256.Size]byte, x, h *nn.Matrix, miss []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target(weights, h.Cols)
	for i := 0; i < x.Rows; i++ {
		at, ok := c.rows[string(c.rowKey(x, i))]
		if !ok {
			miss = append(miss, i)
			continue
		}
		copy(h.Row(i), c.out[at*c.cols:(at+1)*c.cols])
	}
	c.hits += uint64(x.Rows - len(miss))
	c.misses += uint64(len(miss))
	return miss
}

// store memoizes h's rows as the prefix output of x's rows.
func (c *PrefixMemo) store(weights [sha256.Size]byte, x, h *nn.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target(weights, h.Cols)
	for i := 0; i < x.Rows; i++ {
		key := c.rowKey(x, i)
		if _, ok := c.rows[string(key)]; ok {
			continue
		}
		cost := len(key) + 8*c.cols + memoEntryOverhead
		if cost > c.limit {
			return
		}
		if c.size+cost > c.limit {
			c.empty()
		}
		c.rows[string(key)] = len(c.out) / c.cols
		c.out = append(c.out, h.Row(i)...)
		c.size += cost
	}
}

// hashLayers is the content hash of the layers' weights: shapes and values,
// layer by layer.
func hashLayers(layers []nn.Module) [sha256.Size]byte {
	var buf []byte
	for _, l := range layers {
		for _, p := range l.Params() {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.W.Rows))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(p.W.Cols))
			for _, v := range p.W.Data {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return sha256.Sum256(buf)
}
