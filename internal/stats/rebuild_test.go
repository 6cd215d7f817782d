package stats

import "neurdb/internal/rel"

// Rebuild is a one-batch rebuild over rows, the shape this package's tests
// state their tables in.
func (ts *TableStats) Rebuild(rows []rel.Row) { ts.NewBuilder(len(rows)).Add(rows).Finish() }
