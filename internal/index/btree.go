// Package index provides the secondary-index substrate: an in-memory B+tree
// for ordered/range access and a hash index for equality probes. Both map
// column values to heap RowIDs; visibility is re-checked against the heap by
// the executor, so index entries may lag deletes (lazy maintenance).
package index

import (
	"sync"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

const btreeOrder = 64 // max keys per node

// BTree is a B+tree keyed by rel.Value (ordered by rel.Compare) with RowID
// postings. Duplicate keys accumulate postings on one leaf entry.
type BTree struct {
	mu   sync.RWMutex
	root btNode
	size int // distinct keys
}

type btNode interface {
	isLeaf() bool
}

type btInternal struct {
	keys     []rel.Value // separators: child[i] holds keys < keys[i]
	children []btNode
}

func (*btInternal) isLeaf() bool { return false }

type btLeaf struct {
	keys     []rel.Value
	postings [][]storage.RowID
	next     *btLeaf
}

func (*btLeaf) isLeaf() bool { return true }

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	return &BTree{root: &btLeaf{}}
}

// Size returns the number of distinct keys.
func (t *BTree) Size() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.size
}

// Insert adds a posting for key.
func (t *BTree) Insert(key rel.Value, id storage.RowID) {
	t.mu.Lock()
	defer t.mu.Unlock()
	newKey, newNode := t.insert(t.root, key, id)
	if newNode != nil {
		t.root = &btInternal{
			keys:     []rel.Value{newKey},
			children: []btNode{t.root, newNode},
		}
	}
}

// insert descends to the leaf; on split returns (separatorKey, rightNode).
func (t *BTree) insert(n btNode, key rel.Value, id storage.RowID) (rel.Value, btNode) {
	switch node := n.(type) {
	case *btLeaf:
		i := lowerBound(node.keys, key)
		if i < len(node.keys) && rel.Compare(node.keys[i], key) == 0 {
			node.postings[i] = append(node.postings[i], id)
			return rel.Value{}, nil
		}
		node.keys = append(node.keys, rel.Value{})
		copy(node.keys[i+1:], node.keys[i:])
		node.keys[i] = key
		node.postings = append(node.postings, nil)
		copy(node.postings[i+1:], node.postings[i:])
		node.postings[i] = []storage.RowID{id}
		t.size++
		if len(node.keys) <= btreeOrder {
			return rel.Value{}, nil
		}
		// Split leaf.
		mid := len(node.keys) / 2
		right := &btLeaf{
			keys:     append([]rel.Value(nil), node.keys[mid:]...),
			postings: append([][]storage.RowID(nil), node.postings[mid:]...),
			next:     node.next,
		}
		node.keys = node.keys[:mid]
		node.postings = node.postings[:mid]
		node.next = right
		return right.keys[0], right
	case *btInternal:
		i := upperBound(node.keys, key)
		sep, newChild := t.insert(node.children[i], key, id)
		if newChild == nil {
			return rel.Value{}, nil
		}
		node.keys = append(node.keys, rel.Value{})
		copy(node.keys[i+1:], node.keys[i:])
		node.keys[i] = sep
		node.children = append(node.children, nil)
		copy(node.children[i+2:], node.children[i+1:])
		node.children[i+1] = newChild
		if len(node.keys) <= btreeOrder {
			return rel.Value{}, nil
		}
		// Split internal.
		mid := len(node.keys) / 2
		upKey := node.keys[mid]
		right := &btInternal{
			keys:     append([]rel.Value(nil), node.keys[mid+1:]...),
			children: append([]btNode(nil), node.children[mid+1:]...),
		}
		node.keys = node.keys[:mid]
		node.children = node.children[:mid+1]
		return upKey, right
	}
	return rel.Value{}, nil
}

// lowerBound returns the first index with keys[i] >= key.
func lowerBound(keys []rel.Value, key rel.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if rel.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// upperBound returns the first index with keys[i] > key.
func upperBound(keys []rel.Value, key rel.Value) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if rel.Compare(keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Lookup returns the postings for key (nil if absent). The returned slice
// must not be mutated.
func (t *BTree) Lookup(key rel.Value) []storage.RowID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	leaf := t.findLeaf(key)
	i := lowerBound(leaf.keys, key)
	if i < len(leaf.keys) && rel.Compare(leaf.keys[i], key) == 0 {
		return leaf.postings[i]
	}
	return nil
}

// LookupBatch probes every key under a single RLock, appending postings to
// dst and per-key end offsets to offs (see catalog.Index.LookupBatch for the
// flattened layout).
func (t *BTree) LookupBatch(keys []rel.Value, dst []storage.RowID, offs []int) ([]storage.RowID, []int) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, key := range keys {
		leaf := t.findLeaf(key)
		i := lowerBound(leaf.keys, key)
		if i < len(leaf.keys) && rel.Compare(leaf.keys[i], key) == 0 {
			dst = append(dst, leaf.postings[i]...)
		}
		offs = append(offs, len(dst))
	}
	return dst, offs
}

func (t *BTree) findLeaf(key rel.Value) *btLeaf {
	n := t.root
	for {
		switch node := n.(type) {
		case *btLeaf:
			return node
		case *btInternal:
			n = node.children[upperBound(node.keys, key)]
		}
	}
}

// Delete removes one posting matching (key, id). It returns true if removed.
// Leaves are not rebalanced (lazy deletion): workloads here are
// insert-mostly, and visibility is heap-checked anyway.
func (t *BTree) Delete(key rel.Value, id storage.RowID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	leaf := t.findLeaf(key)
	i := lowerBound(leaf.keys, key)
	if i >= len(leaf.keys) || rel.Compare(leaf.keys[i], key) != 0 {
		return false
	}
	ps := leaf.postings[i]
	for j, p := range ps {
		if p == id {
			leaf.postings[i] = append(ps[:j], ps[j+1:]...)
			if len(leaf.postings[i]) == 0 {
				leaf.keys = append(leaf.keys[:i], leaf.keys[i+1:]...)
				leaf.postings = append(leaf.postings[:i], leaf.postings[i+1:]...)
				t.size--
			}
			return true
		}
	}
	return false
}

// Range visits postings for keys in [lo, hi]. Nil bounds are open. The
// visitor returns false to stop. The scan seeks to lo inside its first leaf
// by binary search, so a short range costs one descent plus the keys it
// visits.
func (t *BTree) Range(lo, hi *rel.Value, visit func(rel.Value, []storage.RowID) bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var leaf *btLeaf
	start := 0
	if lo != nil {
		// Every key in the leaves before findLeaf(lo) is below lo; the
		// first key >= lo is in this leaf or opens the next one.
		leaf = t.findLeaf(*lo)
		start = lowerBound(leaf.keys, *lo)
	} else {
		n := t.root
		for {
			if l, ok := n.(*btLeaf); ok {
				leaf = l
				break
			}
			n = n.(*btInternal).children[0]
		}
	}
	for ; leaf != nil; leaf, start = leaf.next, 0 {
		for i := start; i < len(leaf.keys); i++ {
			k := leaf.keys[i]
			if hi != nil && rel.Compare(k, *hi) > 0 {
				return
			}
			if !visit(k, leaf.postings[i]) {
				return
			}
		}
	}
}

// Keys returns all keys in order (testing helper).
func (t *BTree) Keys() []rel.Value {
	var out []rel.Value
	t.Range(nil, nil, func(k rel.Value, _ []storage.RowID) bool {
		out = append(out, k)
		return true
	})
	return out
}

// HashIndex is an equality-only index on one column.
type HashIndex struct {
	mu      sync.RWMutex
	buckets map[uint64][]hashEntry
	size    int
}

type hashEntry struct {
	key rel.Value
	id  storage.RowID
}

// NewHashIndex creates an empty hash index.
func NewHashIndex() *HashIndex {
	return &HashIndex{buckets: make(map[uint64][]hashEntry)}
}

// Insert adds a posting.
func (h *HashIndex) Insert(key rel.Value, id storage.RowID) {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := key.Hash()
	h.buckets[k] = append(h.buckets[k], hashEntry{key, id})
	h.size++
}

// Lookup returns RowIDs whose key equals the probe.
func (h *HashIndex) Lookup(key rel.Value) []storage.RowID {
	h.mu.RLock()
	defer h.mu.RUnlock()
	var out []storage.RowID
	for _, e := range h.buckets[key.Hash()] {
		if rel.Equal(e.key, key) {
			out = append(out, e.id)
		}
	}
	return out
}

// LookupBatch probes every key under a single RLock, appending matches to
// dst and per-key end offsets to offs (see catalog.Index.LookupBatch for the
// flattened layout).
func (h *HashIndex) LookupBatch(keys []rel.Value, dst []storage.RowID, offs []int) ([]storage.RowID, []int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, key := range keys {
		for _, e := range h.buckets[key.Hash()] {
			if rel.Equal(e.key, key) {
				dst = append(dst, e.id)
			}
		}
		offs = append(offs, len(dst))
	}
	return dst, offs
}

// Delete removes one posting matching (key, id); returns true if removed.
func (h *HashIndex) Delete(key rel.Value, id storage.RowID) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	k := key.Hash()
	bucket := h.buckets[k]
	for i, e := range bucket {
		if e.id == id && rel.Equal(e.key, key) {
			h.buckets[k] = append(bucket[:i], bucket[i+1:]...)
			h.size--
			return true
		}
	}
	return false
}

// Size returns the number of postings.
func (h *HashIndex) Size() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.size
}
