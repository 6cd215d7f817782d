package index

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// allKeys returns the tree's keys in order, as Range visits them.
func allKeys(bt *BTree) []rel.Value {
	var out []rel.Value
	bt.Range(nil, nil, func(k rel.Value, _ []storage.RowID) bool {
		out = append(out, k)
		return true
	})
	return out
}

func rid(n int) storage.RowID {
	return storage.RowID{Page: uint32(n / 128), Slot: uint32(n % 128)}
}

func TestBTreeInsertLookup(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(rel.Int(int64(i)), rid(i))
	}
	if len(allKeys(bt)) != 1000 {
		t.Fatalf("size = %d", len(allKeys(bt)))
	}
	for i := 0; i < 1000; i++ {
		ps := bt.Lookup(rel.Int(int64(i)))
		if len(ps) != 1 || ps[0] != rid(i) {
			t.Fatalf("lookup %d = %v", i, ps)
		}
	}
	if bt.Lookup(rel.Int(5000)) != nil {
		t.Fatal("missing key should return nil")
	}
}

func TestBTreeDuplicateKeys(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 10; i++ {
		bt.Insert(rel.Int(7), rid(i))
	}
	if len(allKeys(bt)) != 1 {
		t.Fatalf("distinct keys = %d", len(allKeys(bt)))
	}
	if got := len(bt.Lookup(rel.Int(7))); got != 10 {
		t.Fatalf("postings = %d", got)
	}
	// A numerically equal FLOAT key is the same key: it joins the postings
	// of INT 7 and finds them.
	bt.Insert(rel.Float(7), rid(10))
	if len(allKeys(bt)) != 1 || len(bt.Lookup(rel.Float(7))) != 11 || len(bt.Lookup(rel.Int(7))) != 11 {
		t.Fatalf("float 7: %d distinct keys, %d/%d postings", len(allKeys(bt)), len(bt.Lookup(rel.Float(7))), len(bt.Lookup(rel.Int(7))))
	}
}

func TestBTreeKeysSortedProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		bt := NewBTree()
		n := 100 + r.Intn(400)
		inserted := map[int64]bool{}
		for i := 0; i < n; i++ {
			k := r.Int63n(10_000)
			inserted[k] = true
			bt.Insert(rel.Int(k), rid(i))
		}
		keys := allKeys(bt)
		if len(keys) != len(inserted) {
			return false
		}
		if !sort.SliceIsSorted(keys, func(i, j int) bool {
			return rel.Compare(keys[i], keys[j]) < 0
		}) {
			return false
		}
		for _, k := range keys {
			if !inserted[k.AsInt()] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 500; i++ {
		bt.Insert(rel.Int(int64(i*2)), rid(i)) // even keys 0..998
	}
	lo, hi := rel.Int(100), rel.Int(110)
	var got []int64
	bt.Range(&lo, &hi, func(k rel.Value, _ []storage.RowID) bool {
		got = append(got, k.AsInt())
		return true
	})
	want := []int64{100, 102, 104, 106, 108, 110}
	if len(got) != len(want) {
		t.Fatalf("range got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range got %v", got)
		}
	}
	// Open-ended ranges.
	var cnt int
	bt.Range(nil, nil, func(rel.Value, []storage.RowID) bool { cnt++; return true })
	if cnt != 500 {
		t.Fatalf("full range saw %d", cnt)
	}
	// Early stop.
	cnt = 0
	bt.Range(nil, nil, func(rel.Value, []storage.RowID) bool { cnt++; return cnt < 5 })
	if cnt != 5 {
		t.Fatalf("early stop saw %d", cnt)
	}
	// Lower bound in the middle, open top.
	lo2 := rel.Int(990)
	var tail []int64
	bt.Range(&lo2, nil, func(k rel.Value, _ []storage.RowID) bool {
		tail = append(tail, k.AsInt())
		return true
	})
	if len(tail) != 5 || tail[0] != 990 {
		t.Fatalf("tail range = %v", tail)
	}
}

// TestBTreeRangeSeekMatchesFilter checks the in-leaf seek against the
// definition — every key with lo <= key <= hi, in order — for bounds that
// fall on keys, between keys, on leaf boundaries, before the first key and
// past the last, over a tree whose leaves were thinned by deletes.
func TestBTreeRangeSeekMatchesFilter(t *testing.T) {
	bt := NewBTree()
	r := rand.New(rand.NewSource(5))
	for _, i := range r.Perm(3000) {
		bt.Insert(rel.Int(int64(i*3)), rid(i)) // keys 0, 3, ..., 8997
	}
	for i := 0; i < 3000; i += 1 + r.Intn(4) {
		bt.Delete(rel.Int(int64(i*3)), rid(i))
	}
	keys := allKeys(bt)
	for trial := 0; trial < 2000; trial++ {
		lo := rel.Int(int64(r.Intn(9200) - 100))
		hi := rel.Int(lo.AsInt() + int64(r.Intn(400)) - 20) // sometimes below lo: empty
		var want []int64
		for _, k := range keys {
			if k.AsInt() >= lo.AsInt() && k.AsInt() <= hi.AsInt() {
				want = append(want, k.AsInt())
			}
		}
		var got []int64
		bt.Range(&lo, &hi, func(k rel.Value, _ []storage.RowID) bool {
			got = append(got, k.AsInt())
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("[%d,%d]: got %v, want %v", lo.AsInt(), hi.AsInt(), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d]: got %v, want %v", lo.AsInt(), hi.AsInt(), got, want)
			}
		}
	}
}

func TestBTreeDelete(t *testing.T) {
	bt := NewBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(rel.Int(int64(i)), rid(i))
	}
	if !bt.Delete(rel.Int(50), rid(50)) {
		t.Fatal("delete existing failed")
	}
	if bt.Lookup(rel.Int(50)) != nil {
		t.Fatal("deleted key still present")
	}
	if len(allKeys(bt)) != 99 {
		t.Fatalf("size after delete = %d", len(allKeys(bt)))
	}
	if bt.Delete(rel.Int(50), rid(50)) {
		t.Fatal("double delete should fail")
	}
	if bt.Delete(rel.Int(5000), rid(0)) {
		t.Fatal("deleting missing key should fail")
	}
	// Deleting one of several postings keeps the key.
	bt.Insert(rel.Int(60), rid(999))
	if !bt.Delete(rel.Int(60), rid(60)) {
		t.Fatal("posting delete failed")
	}
	if ps := bt.Lookup(rel.Int(60)); len(ps) != 1 || ps[0] != rid(999) {
		t.Fatalf("postings after partial delete: %v", ps)
	}
	// Deleting a missing posting under an existing key fails.
	if bt.Delete(rel.Int(60), rid(777)) {
		t.Fatal("missing posting delete should fail")
	}
}

func TestBTreeMixedTypesOrdered(t *testing.T) {
	bt := NewBTree()
	bt.Insert(rel.Text("b"), rid(1))
	bt.Insert(rel.Int(5), rid(2))
	bt.Insert(rel.Text("a"), rid(3))
	bt.Insert(rel.Float(2.5), rid(4))
	keys := allKeys(bt)
	// numeric class before text class; within class by value
	if keys[0].AsFloat() != 2.5 || keys[1].AsFloat() != 5 || keys[2].String() != "a" || keys[3].String() != "b" {
		t.Fatalf("mixed order wrong: %v", keys)
	}
}

func TestBTreeRandomizedAgainstMap(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	bt := NewBTree()
	ref := map[int64][]storage.RowID{}
	for op := 0; op < 5000; op++ {
		k := r.Int63n(300)
		if r.Intn(3) < 2 || len(ref[k]) == 0 {
			id := rid(op)
			bt.Insert(rel.Int(k), id)
			ref[k] = append(ref[k], id)
		} else {
			id := ref[k][0]
			if !bt.Delete(rel.Int(k), id) {
				t.Fatalf("delete of known posting failed (key %d)", k)
			}
			ref[k] = ref[k][1:]
			if len(ref[k]) == 0 {
				delete(ref, k)
			}
		}
	}
	for k, want := range ref {
		got := bt.Lookup(rel.Int(k))
		if len(got) != len(want) {
			t.Fatalf("key %d: got %d postings, want %d", k, len(got), len(want))
		}
	}
	if len(allKeys(bt)) != len(ref) {
		t.Fatalf("size %d vs ref %d", len(allKeys(bt)), len(ref))
	}
}

// TestLookupBatchMatchesLookup: the batched probe must return, per key, the
// exact postings (and order) of individual Lookup calls — for INT and TEXT
// keys, including missing keys and duplicate-key postings.
func TestLookupBatchMatchesLookup(t *testing.T) {
	bt := NewBTree()
	tt := NewBTree()
	for i := 0; i < 500; i++ {
		id := storage.RowID{Page: uint32(i / 128), Slot: uint32(i % 128)}
		bt.Insert(rel.Int(int64(i%120)), id) // duplicates accumulate postings
		tt.Insert(rel.Text(fmt.Sprintf("k%03d", i%120)), id)
	}
	check := func(name string, tr *BTree, keys []rel.Value) {
		ids, offs := tr.LookupBatch(keys, nil, nil)
		if len(offs) != len(keys) {
			t.Fatalf("%s: %d offsets for %d keys", name, len(offs), len(keys))
		}
		start := 0
		for k, key := range keys {
			got := ids[start:offs[k]]
			want := tr.Lookup(key)
			if len(got) != len(want) {
				t.Fatalf("%s key %v: batch %d postings, single %d", name, key, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s key %v posting %d: %v != %v", name, key, i, got[i], want[i])
				}
			}
			start = offs[k]
		}
		if start != len(ids) {
			t.Fatalf("%s: %d postings not covered by offsets", name, len(ids)-start)
		}
	}
	check("int", bt, []rel.Value{
		rel.Int(0), rel.Int(7), rel.Int(7), // repeated probe key
		rel.Int(119), rel.Int(500), // missing key
		rel.Int(64),
	})
	check("text", tt, []rel.Value{
		rel.Text("k000"), rel.Text("k007"), rel.Text("k007"),
		rel.Text("k119"), rel.Text("k500"), rel.Text("k07"), // missing, and a prefix of a key
		rel.Text("k064"),
	})
	if got := tt.Lookup(rel.Text("k007")); len(got) != 5 {
		t.Fatalf("text key k007: %d postings, want 5", len(got))
	}

	// Appending into preloaded slices must not clobber the prefix.
	pre := []storage.RowID{{Page: 9, Slot: 9}}
	ids, offs := bt.LookupBatch([]rel.Value{rel.Int(0)}, pre, []int{len(pre)})
	if ids[0] != pre[0] || offs[0] != 1 || offs[1] != len(ids) {
		t.Fatalf("batch append clobbered prefix: ids=%v offs=%v", ids, offs)
	}
}
