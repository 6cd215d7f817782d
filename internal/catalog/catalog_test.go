package catalog

import (
	"testing"

	"neurdb/internal/index"
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

func schema() *rel.Schema {
	return rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "v", Typ: rel.TypeFloat},
	)
}

func TestCreateGetDrop(t *testing.T) {
	c := New(storage.NewBufferPool(16))
	tbl, err := c.Create("T1", schema())
	if err != nil {
		t.Fatal(err)
	}
	if tbl.Name != "t1" || tbl.ID == 0 {
		t.Fatalf("table meta: %+v", tbl)
	}
	// Case-insensitive resolution.
	got, err := c.Get("t1")
	if err != nil || got != tbl {
		t.Fatal("get failed")
	}
	if _, err := c.Get("T1"); err != nil {
		t.Fatal("case-insensitive get failed")
	}
	// Duplicate create.
	if _, err := c.Create("t1", schema()); err == nil {
		t.Fatal("duplicate create should fail")
	}
	// Duplicate column, whatever its case; nothing is registered.
	twice := rel.NewSchema(rel.Column{Name: "a", Typ: rel.TypeInt}, rel.Column{Name: "A", Typ: rel.TypeFloat})
	if _, err := c.Create("t2", twice); err == nil {
		t.Fatal("a column named twice should fail")
	}
	if _, err := c.Get("t2"); err == nil {
		t.Fatal("refused create registered the table")
	}
	// Drop.
	if err := c.Drop("t1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get("t1"); err == nil {
		t.Fatal("dropped table should be gone")
	}
	if err := c.Drop("t1"); err == nil {
		t.Fatal("double drop should fail")
	}
}

func TestAllSortedByID(t *testing.T) {
	c := New(nil)
	for _, name := range []string{"zed", "alpha", "mid"} {
		if _, err := c.Create(name, schema()); err != nil {
			t.Fatal(err)
		}
	}
	all := c.All()
	if len(all) != 3 {
		t.Fatalf("all = %d", len(all))
	}
	for i := 1; i < len(all); i++ {
		if all[i-1].ID >= all[i].ID {
			t.Fatal("tables not sorted by id")
		}
	}
}

func TestIndexManagement(t *testing.T) {
	c := New(nil)
	tbl, _ := c.Create("t", schema())
	if tbl.IndexOn(0) != nil {
		t.Fatal("no index expected")
	}
	hash := &Index{Name: "h", Col: 0, Hash: index.NewHashIndex()}
	tbl.AddIndex(hash, nil)
	if got := tbl.IndexOn(0); got != hash {
		t.Fatal("hash index not found")
	}
	if hash.Ordered() {
		t.Fatal("hash index is not ordered")
	}
	// Ordered index on the same column takes precedence.
	bt := &Index{Name: "b", Col: 0, BT: index.NewBTree()}
	tbl.AddIndex(bt, nil)
	if got := tbl.IndexOn(0); got != bt {
		t.Fatal("btree should win over hash")
	}
	if !bt.Ordered() {
		t.Fatal("btree must be ordered")
	}
	if len(tbl.Indexes()) != 2 {
		t.Fatal("index list wrong")
	}
	// A name the table already has is refused, on any column.
	if err := tbl.AddIndex(&Index{Name: "b", Col: 1, BT: index.NewBTree()}, nil); err == nil {
		t.Fatal("duplicate index name should fail")
	}
	if len(tbl.Indexes()) != 2 {
		t.Fatal("refused index was registered")
	}
	// While its fill runs an index is maintained by writers (Indexes) and
	// hidden from the planner (IndexOn); afterwards it is both.
	late := &Index{Name: "late", Col: 1, BT: index.NewBTree()}
	err := tbl.AddIndex(late, func() {
		if n := len(tbl.Indexes()); n != 3 {
			t.Errorf("during fill: %d indexes to maintain, want 3", n)
		}
		if tbl.IndexOn(1) != nil {
			t.Error("during fill: the planner sees the half-built index")
		}
	})
	if err != nil || tbl.IndexOn(1) != late {
		t.Fatalf("after fill: err %v, IndexOn(1) = %v", err, tbl.IndexOn(1))
	}
	// Insert/lookup through the unified interface.
	id := storage.RowID{Page: 1, Slot: 2}
	for _, ix := range tbl.Indexes() {
		ix.Insert(rel.Int(5), id)
		if got := ix.Lookup(rel.Int(5)); len(got) != 1 || got[0] != id {
			t.Fatalf("lookup through %s failed", ix.Name)
		}
	}
}
