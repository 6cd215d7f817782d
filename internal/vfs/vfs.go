// Package vfs is the virtual filesystem boundary of the durability layer.
// Everything internal/wal and the root-package recovery path do to disk —
// segment creation, record writes, fsyncs, checkpoint rename dances,
// directory listings — goes through the FS interface, so the whole failure
// domain of a real disk (EIO, ENOSPC, short writes, power loss between an
// acknowledged write and its fsync) can be scripted deterministically in
// tests instead of waited for in production.
//
// OS, a zero-cost passthrough to the os package, is the one implementation
// a request path uses. Tests use vfstest.FaultFS, which wraps any FS and
// injects scripted faults while journaling every operation for assertions.
package vfs

import (
	"io"
	"os"
)

// File is the subset of *os.File the durability layer uses. Write errors,
// Sync errors, and Close errors are all durability events — see the ioerr
// lint analyzer, which covers every call site of these methods.
type File interface {
	io.Reader
	io.Writer
	// Sync forces the file's data to stable storage (fsync).
	Sync() error
	Close() error
	// Truncate changes the file's size (crash-simulation and repair paths).
	Truncate(size int64) error
}

// FS is the filesystem surface of the durability layer. Implementations
// must be safe for concurrent use by multiple goroutines.
type FS interface {
	// OpenFile is the general open call (os.OpenFile semantics: flag is
	// O_CREATE|O_EXCL|O_WRONLY and friends).
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// Open opens a file (or directory, for directory fsyncs) read-only.
	Open(name string) (File, error)
	// ReadFile returns the file's whole contents (recovery-time reads).
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory, sorted by filename.
	ReadDir(name string) ([]os.DirEntry, error)
	// Rename atomically moves oldpath to newpath (checkpoint publication).
	Rename(oldpath, newpath string) error
	// Remove deletes a file (segment and checkpoint retention).
	Remove(name string) error
	// MkdirAll creates the directory path (boot).
	MkdirAll(path string, perm os.FileMode) error
}

// OS is the passthrough FS over the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		// Return a typed nil-free interface: a nil *os.File inside a non-nil
		// interface would defeat callers' `if f != nil` cleanup checks.
		return nil, err
	}
	return f, nil
}

func (osFS) Open(name string) (File, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
