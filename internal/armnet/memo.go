package armnet

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"

	"neurdb/internal/nn"
)

// PrefixMemoBytes bounds a PrefixMemo. An entry of the default PREDICT model
// (three fields, 32 outputs) is 296 bytes, so this holds ~110,000 distinct
// feature tuples — a dozen sliding windows' worth.
const PrefixMemoBytes = 32 << 20

// memoEntryOverhead is what an entry costs beyond its key and its outputs:
// its share of the slot table, which a doubling leaves a quarter full.
const memoEntryOverhead = 16

// PrefixMemo keeps the frozen prefix's output per input row, for the frozen
// weights it last saw. The prefix is a pure function of those weights and of
// the row, and it starts at the model's Embedding, which reads each input only
// as the integer id int(v): so an entry found under the same weight hash and
// the same ids is the value a recomputation would produce, bit for bit, and
// the memo only ever saves work. A row's key is its ids as int64s, one per
// field, whatever the field count. One table serves fine-tune and inference
// tasks, so the rows an inference saw first are hits for the fine-tunes that
// follow. It is emptied wholesale when it would outgrow its bound and when the
// weight hash changes — successive fine-tunes of one model share a prefix, a
// retrain or another model starts over.
type PrefixMemo struct {
	mu      sync.Mutex
	limit   int
	weights [sha256.Size]byte
	fields  int       // ids per key: the prefix's input columns
	cols    int       // outputs per entry
	n       int       // entries
	keys    []int64   // entry e's ids, keys[e*fields:(e+1)*fields]
	out     []float64 // entry e's outputs, out[e*cols:(e+1)*cols]
	// slots is an open-addressing table with linear probing: entry+1, or 0
	// for an empty slot. Its length is a power of two, and it is at most half
	// full.
	slots  []int32
	size   int
	hits   uint64
	misses uint64
}

// NewPrefixMemo returns an empty memo that holds at most limit bytes
// (PrefixMemoBytes everywhere outside tests).
func NewPrefixMemo(limit int) *PrefixMemo {
	return &PrefixMemo{limit: limit, slots: make([]int32, 64)}
}

// Stats returns how many rows lookups found and did not find.
//
//neurdb:reserved direction 1
func (c *PrefixMemo) Stats() (hits, misses uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// target points the memo at a prefix, emptying it if that is not the one its
// entries belong to. Callers hold mu.
func (c *PrefixMemo) target(weights [sha256.Size]byte, fields, cols int) {
	if weights != c.weights || fields != c.fields || cols != c.cols {
		c.weights, c.fields, c.cols = weights, fields, cols
		c.empty()
	}
}

func (c *PrefixMemo) empty() {
	clear(c.slots)
	c.keys, c.out, c.n, c.size = c.keys[:0], c.out[:0], 0, 0
}

// idHash mixes one id into a key's hash.
func idHash(h uint64, id int64) uint64 { return (h ^ uint64(id)) * 0x9E3779B97F4A7C15 }

// slot0 is the first slot a key with hash h probes.
func (c *PrefixMemo) slot0(h uint64) int { return int(h^h>>32) & (len(c.slots) - 1) }

// find returns the entry whose key is row's ids and the slot that holds it,
// or -1 and the empty slot where it would go.
func (c *PrefixMemo) find(row []float64) (slot, entry int) {
	var h uint64
	for _, v := range row {
		h = idHash(h, int64(v))
	}
	mask := len(c.slots) - 1
	for s := c.slot0(h); ; s = (s + 1) & mask {
		e := int(c.slots[s]) - 1
		if e < 0 || idsEqual(c.keys[e*c.fields:(e+1)*c.fields], row) {
			return s, e
		}
	}
}

func idsEqual(key []int64, row []float64) bool {
	for f, v := range row {
		if key[f] != int64(v) {
			return false
		}
	}
	return true
}

// grow doubles the slot table and places every entry again.
func (c *PrefixMemo) grow() {
	c.slots = make([]int32, 2*len(c.slots))
	mask := len(c.slots) - 1
	for e := 0; e < c.n; e++ {
		var h uint64
		for _, id := range c.keys[e*c.fields : (e+1)*c.fields] {
			h = idHash(h, id)
		}
		s := c.slot0(h)
		for c.slots[s] != 0 {
			s = (s + 1) & mask
		}
		c.slots[s] = int32(e + 1)
	}
}

// lookup copies the memoized prefix output of every row of x it holds into
// the same row of h and appends the indexes of the others to miss.
func (c *PrefixMemo) lookup(weights [sha256.Size]byte, x, h *nn.Matrix, miss []int) []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target(weights, x.Cols, h.Cols)
	for i := 0; i < x.Rows; i++ {
		_, e := c.find(x.Row(i))
		if e < 0 {
			miss = append(miss, i)
			continue
		}
		copy(h.Row(i), c.out[e*c.cols:(e+1)*c.cols])
	}
	c.hits += uint64(x.Rows - len(miss))
	c.misses += uint64(len(miss))
	return miss
}

// store memoizes h's rows as the prefix output of x's rows.
func (c *PrefixMemo) store(weights [sha256.Size]byte, x, h *nn.Matrix) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.target(weights, x.Cols, h.Cols)
	cost := 8*(c.fields+c.cols) + memoEntryOverhead
	if cost > c.limit {
		return
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		s, e := c.find(row)
		if e >= 0 {
			continue
		}
		if c.size+cost > c.limit {
			c.empty()
			s, _ = c.find(row)
		}
		if 2*(c.n+1) > len(c.slots) {
			c.grow()
			s, _ = c.find(row)
		}
		c.slots[s] = int32(c.n + 1)
		for _, v := range row {
			c.keys = append(c.keys, int64(v))
		}
		c.out = append(c.out, h.Row(i)...)
		c.n++
		c.size += cost
	}
}

// hashLayers is the content hash of the layers' weights: shapes and values,
// layer by layer, fed to SHA-256 through one fixed buffer.
func hashLayers(layers []nn.Module) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 4096)
	put := func(v uint64) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, v)
	}
	for _, l := range layers {
		for _, p := range l.Params() {
			put(uint64(p.W.Rows))
			put(uint64(p.W.Cols))
			for _, v := range p.W.Data {
				put(math.Float64bits(v))
			}
		}
	}
	h.Write(buf)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}
