package catalog

import (
	"fmt"
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

// TestKeyIndexesBornWithTable: Create and Restore hand back a table whose
// PRIMARY KEY and UNIQUE columns are already indexed, so the table is never
// reachable without them.
func TestKeyIndexesBornWithTable(t *testing.T) {
	sch := rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt, Unique: true},
		rel.Column{Name: "v", Typ: rel.TypeFloat},
		rel.Column{Name: "Code", Typ: rel.TypeText, Unique: true},
	)
	c := New(nil)
	created, err := c.Create("T", sch)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := c.Restore(7, "r", sch)
	if err != nil {
		t.Fatal(err)
	}
	for _, tbl := range []*Table{created, restored} {
		var names []string
		for _, ix := range tbl.Indexes() {
			names = append(names, ix.Name)
		}
		if fmt.Sprint(names) != fmt.Sprintf("[%s_id %s_Code]", tbl.Name, tbl.Name) {
			t.Fatalf("%s: indexes %v", tbl.Name, names)
		}
		if tbl.IndexOn(0) == nil || tbl.IndexOn(1) != nil || tbl.IndexOn(2) == nil {
			t.Fatalf("%s: IndexOn = %v %v %v", tbl.Name, tbl.IndexOn(0), tbl.IndexOn(1), tbl.IndexOn(2))
		}
	}
}

func TestIndexManagement(t *testing.T) {
	c := New(nil)
	tbl, _ := c.Create("t", rel.NewSchema(
		rel.Column{Name: "id", Typ: rel.TypeInt},
		rel.Column{Name: "v", Typ: rel.TypeFloat},
	))
	if tbl.IndexOn(0) != nil {
		t.Fatal("no index expected")
	}
	bt := &Index{Name: "b", Col: 0, BT: index.NewBTree()}
	tbl.AddIndex(bt, nil)
	if got := tbl.IndexOn(0); got != bt {
		t.Fatal("index not found")
	}
	if len(tbl.Indexes()) != 1 {
		t.Fatal("index list wrong")
	}
	// A name the table already has is refused, on any column.
	if err := tbl.AddIndex(&Index{Name: "b", Col: 1, BT: index.NewBTree()}, nil); err == nil {
		t.Fatal("duplicate index name should fail")
	}
	if len(tbl.Indexes()) != 1 {
		t.Fatal("refused index was registered")
	}
	// While its fill runs an index is maintained by writers (Indexes) and
	// hidden from the planner (IndexOn); afterwards it is both.
	late := &Index{Name: "late", Col: 1, BT: index.NewBTree()}
	err := tbl.AddIndex(late, func() {
		if n := len(tbl.Indexes()); n != 2 {
			t.Errorf("during fill: %d indexes to maintain, want 2", n)
		}
		if tbl.IndexOn(1) != nil {
			t.Error("during fill: the planner sees the half-built index")
		}
	})
	if err != nil || tbl.IndexOn(1) != late {
		t.Fatalf("after fill: err %v, IndexOn(1) = %v", err, tbl.IndexOn(1))
	}
}
