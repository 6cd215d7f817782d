// Package wal seeds ioerr violations for the neurdb-lint fixture module.
package wal

import "os"

// closeDiscard drops a Close error on the durability path.
func closeDiscard(f *os.File) {
	f.Close() // want ioerr:"Close error discarded"
}

// deferDiscard drops it via defer — same hole, later timing.
func deferDiscard(f *os.File) {
	defer f.Close() // want ioerr:"Close error discarded"
}

// removeDiscard drops a Remove error.
func removeDiscard(tmp string) {
	os.Remove(tmp) // want ioerr:"Remove error discarded"
}

// explicitDrop declares the drop; the blank assignment is the reviewable
// marker the analyzer asks for — clean.
func explicitDrop(f *os.File) {
	_ = f.Close()
}

// handled consumes the error — clean.
func handled(f *os.File) error {
	return f.Sync()
}
