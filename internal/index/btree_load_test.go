package index

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// refIndex is the reference an index is checked against: every key's
// postings in insertion order.
type refIndex map[int64][]storage.RowID

// checkAgainst compares every key, posting, Lookup and full Range of bt with
// ref, and a few bounded ranges.
func checkAgainst(t *testing.T, bt *BTree, ref refIndex) {
	t.Helper()
	keys := make([]int64, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	bt.Range(nil, nil, func(k rel.Value, ps []storage.RowID) bool {
		if i >= len(keys) || k.AsInt() != keys[i] || !slices.Equal(ps, ref[keys[i]]) {
			t.Fatalf("range entry %d: key %v postings %v, want key %d postings %v", i, k, ps, keys[min(i, len(keys)-1)], ref[keys[min(i, len(keys)-1)]])
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("range visited %d keys, want %d", i, len(keys))
	}
	for _, k := range keys {
		if got := bt.Lookup(rel.Int(k)); !slices.Equal(got, ref[k]) {
			t.Fatalf("lookup %d = %v, want %v", k, got, ref[k])
		}
	}
	if len(keys) == 0 {
		return
	}
	r := rand.New(rand.NewSource(int64(len(keys))))
	for trial := 0; trial < 50; trial++ {
		lo := keys[r.Intn(len(keys))] - int64(r.Intn(3))
		hi := lo + int64(r.Intn(200))
		want := keys[sort.Search(len(keys), func(j int) bool { return keys[j] >= lo }):]
		want = want[:sort.Search(len(want), func(j int) bool { return want[j] > hi })]
		var got []int64
		lv, hv := rel.Int(lo), rel.Int(hi)
		bt.Range(&lv, &hv, func(k rel.Value, _ []storage.RowID) bool {
			got = append(got, k.AsInt())
			return true
		})
		if !slices.Equal(got, want) {
			t.Fatalf("range [%d,%d] = %v, want %v", lo, hi, got, want)
		}
	}
}

// TestBTreeLoadOrders loads keys ascending, descending, at random and with
// many duplicates, through InsertRows in batches and one key at a time, and
// checks the tree against a sorted reference.
func TestBTreeLoadOrders(t *testing.T) {
	const n = 5000
	r := rand.New(rand.NewSource(3))
	orders := map[string][]int64{}
	for i := 0; i < n; i++ {
		orders["ascending"] = append(orders["ascending"], int64(i))
		orders["descending"] = append(orders["descending"], int64(n-i))
		orders["random"] = append(orders["random"], r.Int63n(4*n))
		orders["duplicates"] = append(orders["duplicates"], r.Int63n(40))
		// Rising runs that restart below their end, as UPDATE posts keys.
		orders["sawtooth"] = append(orders["sawtooth"], int64(i%700+i/700*100))
	}
	for name, keys := range orders {
		for _, batch := range []int{1, 37, n} {
			t.Run(fmt.Sprintf("%s/batch=%d", name, batch), func(t *testing.T) {
				bt := NewBTree()
				ref := refIndex{}
				for lo := 0; lo < len(keys); lo += batch {
					hi := min(lo+batch, len(keys))
					rows := make([]rel.Row, 0, hi-lo)
					ids := make([]storage.RowID, 0, hi-lo)
					for i := lo; i < hi; i++ {
						rows = append(rows, rel.Row{rel.Text("pad"), rel.Int(keys[i])})
						ids = append(ids, rid(i))
						ref[keys[i]] = append(ref[keys[i]], rid(i))
					}
					bt.InsertRows(rows, 1, ids)
				}
				checkAgainst(t, bt, ref)
			})
		}
	}
}

// TestBTreeLookupSliceIsStable: a posting slice Lookup returned never
// changes, whatever is inserted after it — more postings of its key, and
// keys around it, on the append path and through descents.
func TestBTreeLookupSliceIsStable(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 300; i++ {
		bt.Insert(rel.Int(int64(2*i)), rid(i))
	}
	var held [][]storage.RowID
	var want [][]storage.RowID
	hold := func(k int64) {
		ps := bt.Lookup(rel.Int(k))
		held = append(held, ps)
		want = append(want, slices.Clone(ps))
	}
	hold(0)
	hold(300)
	hold(598) // the rightmost key, on the append path's leaf
	for round := 0; round < 5; round++ {
		for _, k := range []int64{0, 300, 598} {
			bt.Insert(rel.Int(k), rid(1000+round))
			bt.Insert(rel.Int(k+1), rid(2000+round))
			if k > 0 {
				bt.Insert(rel.Int(k-1), rid(3000+round))
			}
			hold(k)
		}
		for i := 0; i < 100; i++ {
			bt.Insert(rel.Int(int64(600+100*round+i)), rid(4000+i))
		}
	}
	for i := range held {
		if !slices.Equal(held[i], want[i]) {
			t.Fatalf("posting slice %d changed: %v, was %v", i, held[i], want[i])
		}
	}
	if got := bt.Lookup(rel.Int(300)); len(got) != 6 {
		t.Fatalf("key 300 has %d postings, want 6", len(got))
	}
}

// TestBTreeAscendingLoadFillsLeaves: rising keys leave every leaf but the
// last full, whether they arrive in one batch or one at a time.
func TestBTreeAscendingLoadFillsLeaves(t *testing.T) {
	for _, batch := range []bool{true, false} {
		bt := NewBTree()
		const n = 10_000
		rows := make([]rel.Row, n)
		ids := make([]storage.RowID, n)
		for i := range rows {
			rows[i], ids[i] = rel.Row{rel.Int(int64(i))}, rid(i)
			if !batch {
				bt.Insert(rows[i][0], ids[i])
			}
		}
		if batch {
			bt.InsertRows(rows, 0, ids)
		}
		n0 := bt.root
		for !n0.isLeaf() {
			n0 = n0.(*btInternal).children[0]
		}
		leaves := 0
		for l := n0.(*btLeaf); l != nil; l = l.next {
			leaves++
			if l.next != nil && len(l.keys) != btreeOrder {
				t.Fatalf("batch=%v: leaf %d holds %d keys, want %d", batch, leaves, len(l.keys), btreeOrder)
			}
			if l.next == nil && l != bt.last {
				t.Fatalf("batch=%v: the last leaf is not the tree's rightmost leaf", batch)
			}
		}
		if want := (n + btreeOrder - 1) / btreeOrder; leaves != want {
			t.Fatalf("batch=%v: %d leaves, want %d", batch, leaves, want)
		}
	}
}
