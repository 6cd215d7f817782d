package index

import (
	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// Insert posts one key through the batch entry point: the tests' one at a
// time.
func (t *BTree) Insert(key rel.Value, id storage.RowID) {
	t.InsertRows([]rel.Row{{key}}, 0, []storage.RowID{id})
}
