// Package catalog tracks table metadata: schemas, heaps, secondary indexes,
// and statistics. It is the shared registry every engine layer (parser
// binding, optimizer, executor, AI operators) resolves names against.
package catalog

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"neurdb/internal/index"
	"neurdb/internal/rel"
	"neurdb/internal/stats"
	"neurdb/internal/storage"
)

// Index is a secondary index over one column: a B-tree from the column's
// values to the heap RowIDs holding them.
type Index struct {
	Name string
	Col  int
	BT   *index.BTree

	// building is set while AddIndex runs the caller's backfill: writers
	// maintain the index, the planner does not see it. Guarded by Table.mu.
	building bool
}

// Table bundles everything the engine knows about one relation.
type Table struct {
	ID      int
	Name    string
	Schema  *rel.Schema
	Heap    *storage.Heap
	Stats   *stats.TableStats
	mu      sync.RWMutex
	indexes []*Index
}

// Indexes returns the current index list (copy-safe for iteration).
func (t *Table) Indexes() []*Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*Index, len(t.indexes))
	copy(out, t.indexes)
	return out
}

// IndexOn returns an index over the given column that the planner may use,
// or nil.
func (t *Table) IndexOn(col int) *Index {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, ix := range t.indexes {
		if ix.Col == col && !ix.building {
			return ix
		}
	}
	return nil
}

// AddIndex registers ix under a name no other index of the table carries.
// From the registration on, every write statement maintains ix (Indexes);
// the planner sees it (IndexOn) only after fill has returned. fill is the
// caller's backfill from the heap — nil for an index that is complete as
// handed in. A writer posts its rows after it has put them in the heap, so a
// row is either posted by its writer, which found ix registered, or was in
// the heap before fill started reading it.
func (t *Table) AddIndex(ix *Index, fill func()) error {
	t.mu.Lock()
	for _, have := range t.indexes {
		if have.Name == ix.Name {
			t.mu.Unlock()
			return fmt.Errorf("catalog: index %q already exists on %q", ix.Name, t.Name)
		}
	}
	ix.building = fill != nil
	t.indexes = append(t.indexes, ix)
	t.mu.Unlock()
	if fill != nil {
		fill()
		t.mu.Lock()
		ix.building = false
		t.mu.Unlock()
	}
	return nil
}

// DropIndex removes ix, the undo of AddIndex for an index whose log record
// fails; the caller bumps the catalog version so no cached plan keeps it.
func (t *Table) DropIndex(ix *Index) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.indexes = slices.DeleteFunc(slices.Clone(t.indexes), func(have *Index) bool { return have == ix })
}

// Catalog is the table registry.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	nextID  int
	Pool    *storage.BufferPool
	version atomic.Uint64
}

// Version returns the schema-change counter. It ticks on every CREATE/DROP
// TABLE and on every explicit BumpVersion (index creation, ANALYZE), so
// cached plans key their validity on it: a plan compiled at version v is
// stale once Version() != v.
func (c *Catalog) Version() uint64 { return c.version.Load() }

// BumpVersion invalidates plans cached against the current version. DDL
// that does not go through Create/Drop (CREATE INDEX) and statistics
// refreshes (ANALYZE) call it so prepared statements replan.
func (c *Catalog) BumpVersion() { c.version.Add(1) }

// New creates a catalog backed by the given buffer pool (may be nil).
func New(pool *storage.BufferPool) *Catalog {
	return &Catalog{tables: make(map[string]*Table), Pool: pool}
}

// Create registers a new table under a name no table carries, with column
// names that are distinct. The table enters the registry with its key
// indexes (newTable), so no writer can reach it before they exist.
func (c *Catalog) Create(name string, schema *rel.Schema) (*Table, error) {
	key := strings.ToLower(name)
	for i, col := range schema.Cols {
		if schema.ColIndex(col.Name) != i {
			return nil, fmt.Errorf("catalog: column %q specified more than once in table %q", col.Name, name)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, exists := c.tables[key]; exists {
		return nil, fmt.Errorf("catalog: table %q already exists", name)
	}
	c.nextID++
	t := c.newTable(c.nextID, key, schema)
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// Restore registers a table under an explicit id during WAL recovery,
// advancing the id allocator past it so post-recovery CREATE TABLE never
// reuses a logged id. Replaying a create-table record the checkpoint
// already restored is a no-op (same name, same id); the same name bound to
// a different id means the log and checkpoint disagree and is an error.
func (c *Catalog) Restore(id int, name string, schema *rel.Schema) (*Table, error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	if t, exists := c.tables[key]; exists {
		if t.ID == id {
			return t, nil
		}
		return nil, fmt.Errorf("catalog: restore table %q: id %d conflicts with existing id %d", name, id, t.ID)
	}
	if id > c.nextID {
		c.nextID = id
	}
	t := c.newTable(id, key, schema)
	c.tables[key] = t
	c.version.Add(1)
	return t, nil
}

// newTable builds a table with an empty heap and one B-tree, named
// table_column, on each PRIMARY KEY or UNIQUE column. These key indexes are
// not logged on their own: Create and Restore build them from the schema's
// Unique flags, and a checkpoint's listing of them is refused by name.
func (c *Catalog) newTable(id int, name string, schema *rel.Schema) *Table {
	t := &Table{
		ID:     id,
		Name:   name,
		Schema: schema,
		Heap:   storage.NewHeap(id, c.Pool),
		Stats:  stats.NewTableStats(schema.Arity()),
	}
	for i, col := range schema.Cols {
		if col.Unique {
			t.indexes = append(t.indexes, &Index{Name: name + "_" + col.Name, Col: i, BT: index.NewBTree()})
		}
	}
	return t
}

// ByID resolves a table by id (nil if absent). WAL commit records name
// tables by id; replay uses this to apply their redo operations.
func (c *Catalog) ByID(id int) *Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, t := range c.tables {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Get resolves a table by name.
func (c *Catalog) Get(name string) (*Table, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	return t, nil
}

// Drop removes a table and returns the undo that puts the same table back,
// for a drop whose log record fails. The caller keeps DDL serialized (the
// commit lock), so no other table takes the name before the undo.
func (c *Catalog) Drop(name string) (undo func(), err error) {
	key := strings.ToLower(name)
	c.mu.Lock()
	defer c.mu.Unlock()
	t, ok := c.tables[key]
	if !ok {
		return nil, fmt.Errorf("catalog: table %q does not exist", name)
	}
	delete(c.tables, key)
	c.version.Add(1)
	return func() {
		c.mu.Lock()
		c.tables[key] = t
		c.version.Add(1)
		c.mu.Unlock()
	}, nil
}

// All returns all tables sorted by id (stable feature ordering for models).
func (c *Catalog) All() []*Table {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
