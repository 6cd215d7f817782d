// Cross-package atomicmix fixture: the rule holds module-wide, not only in
// the package that declares the counter.
package executor

import (
	"sync/atomic"

	"neurdb/internal/storage"
)

// resetPlain zeroes a caller's plain counter through a package function.
func resetPlain(n *uint64) {
	atomic.StoreUint64(n, 0) // want atomicmix:"sync/atomic.StoreUint64 on a plain value"
}

// readGauge goes through the typed atomic — clean.
func readGauge(g *storage.Gauge) uint64 {
	return g.Load()
}
