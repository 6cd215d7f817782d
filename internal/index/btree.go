// Package index provides the secondary-index substrate: an in-memory B+tree
// that serves equality probes and range scans alike. It maps column values
// to heap RowIDs; visibility is re-checked against the heap by the executor,
// so index entries may lag deletes (lazy maintenance).
package index

import (
	"slices"
	"sync"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

const btreeOrder = 64 // max keys per node

// postingChunk is the most RowIDs one posting slab chunk holds: 8 KB.
const postingChunk = 1024

// BTree is a B+tree keyed by rel.Value (ordered by rel.Compare) with RowID
// postings. Duplicate keys accumulate postings on one leaf entry.
//
// Loads mostly arrive in key order, so the tree is shaped for rising keys, as
// PostgreSQL's nbtree is: a key above the rightmost leaf's last key is
// appended there without a descent, and a split of a rightmost node caused by
// a key at its end leaves the left node full. A new key's one-RowID posting
// is carved from a tree-owned slab as slab[k:k+1:k+1]; the capacity cap makes
// a duplicate's append copy out, so a posting slice Lookup returned never
// changes under a later insert, and one live posting pins at most one 8 KB
// chunk.
type BTree struct {
	mu   sync.RWMutex
	root btNode
	last *btLeaf         // the rightmost leaf
	slab []storage.RowID // the chunk new postings are carved from
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

// newLeaf returns a leaf holding keys and postings, sized for a full node
// plus the key that splits it.
func newLeaf(keys []rel.Value, postings [][]storage.RowID, next *btLeaf) *btLeaf {
	return &btLeaf{
		keys:     append(make([]rel.Value, 0, btreeOrder+1), keys...),
		postings: append(make([][]storage.RowID, 0, btreeOrder+1), postings...),
		next:     next,
	}
}

// newInternal is newLeaf for an internal node.
func newInternal(keys []rel.Value, children []btNode) *btInternal {
	return &btInternal{
		keys:     append(make([]rel.Value, 0, btreeOrder+1), keys...),
		children: append(make([]btNode, 0, btreeOrder+2), children...),
	}
}

// NewBTree creates an empty tree.
func NewBTree() *BTree {
	leaf := newLeaf(nil, nil, nil)
	return &BTree{root: leaf, last: leaf}
}

// InsertRows posts ids[i] under rows[i][col] for every i, under one lock.
func (t *BTree) InsertRows(rows []rel.Row, col int, ids []storage.RowID) {
	if len(rows) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, row := range rows {
		t.insert(row[col], ids[i])
	}
}

// insert adds one posting; the caller holds the write lock.
func (t *BTree) insert(key rel.Value, id storage.RowID) {
	if l := t.last; len(l.keys) > 0 && len(l.keys) < btreeOrder && rel.Compare(key, l.keys[len(l.keys)-1]) > 0 {
		// Every key of the tree is below key, and the rightmost leaf has
		// room: a descent would end here.
		l.keys = append(l.keys, key)
		l.postings = append(l.postings, t.posting(id))
		return
	}
	if sep, right := t.descend(t.root, true, key, id); right != nil {
		t.root = newInternal([]rel.Value{sep}, []btNode{t.root, right})
	}
}

// posting returns a one-RowID posting carved from the slab. Chunks double
// from 8 to postingChunk RowIDs, so a small index allocates little.
func (t *BTree) posting(id storage.RowID) []storage.RowID {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]storage.RowID, 0, min(max(2*cap(t.slab), 8), postingChunk))
	}
	t.slab = append(t.slab, id)
	n := len(t.slab)
	return t.slab[n-1 : n : n]
}

// descend inserts below n, the rightmost node of its level when rightmost is
// set; on split it returns (separatorKey, rightNode).
func (t *BTree) descend(n btNode, rightmost bool, key rel.Value, id storage.RowID) (rel.Value, btNode) {
	switch node := n.(type) {
	case *btLeaf:
		i := lowerBound(node.keys, key)
		if i < len(node.keys) && rel.Compare(node.keys[i], key) == 0 {
			node.postings[i] = append(node.postings[i], id)
			return rel.Value{}, nil
		}
		node.keys = slices.Insert(node.keys, i, key)
		node.postings = slices.Insert(node.postings, i, t.posting(id))
		if len(node.keys) <= btreeOrder {
			return rel.Value{}, nil
		}
		mid := splitPoint(len(node.keys), rightmost && i == len(node.keys)-1)
		right := newLeaf(node.keys[mid:], node.postings[mid:], node.next)
		clear(node.keys[mid:])
		clear(node.postings[mid:])
		node.keys = node.keys[:mid]
		node.postings = node.postings[:mid]
		node.next = right
		if right.next == nil {
			t.last = right
		}
		return right.keys[0], right
	case *btInternal:
		i := upperBound(node.keys, key)
		sep, newChild := t.descend(node.children[i], rightmost && i == len(node.children)-1, key, id)
		if newChild == nil {
			return rel.Value{}, nil
		}
		node.keys = slices.Insert(node.keys, i, sep)
		node.children = slices.Insert(node.children, i+1, newChild)
		if len(node.keys) <= btreeOrder {
			return rel.Value{}, nil
		}
		// keys[mid] moves up; the right node keeps the keys after it (none
		// after a split at the end, only the new child).
		mid := splitPoint(len(node.keys), rightmost && i == len(node.keys)-1)
		upKey := node.keys[mid]
		right := newInternal(node.keys[mid+1:], node.children[mid+1:])
		clear(node.keys[mid:])
		clear(node.children[mid+1:])
		node.keys = node.keys[:mid]
		node.children = node.children[:mid+1]
		return upKey, right
	}
	return rel.Value{}, nil
}

// splitPoint is where an overfull node of n keys splits: the left node keeps
// keys[:splitPoint]. A rightmost node that overflowed at its end keeps every
// key but the new one, since rising keys will not come back to it; any other
// node splits in half.
func splitPoint(n int, atEnd bool) int {
	if atEnd {
		return n - 1
	}
	return n / 2
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

// LookupBatch probes every key under a single RLock, appending the postings
// to dst (flattened) and the per-key end offset to offs, so
// dst[offs[k-1]:offs[k]] are key k's postings (offs[-1] reads as the initial
// len(dst)). The batched index joins use it to pay one lock and zero
// per-probe allocations per outer batch instead of per outer row.
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
//
//neurdb:reserved direction 5
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
