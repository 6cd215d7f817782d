// Package vfstest holds FaultFS, a vfs.FS that wraps another and injects
// scripted disk faults (EIO, ENOSPC, short writes, a simulated power loss)
// while journaling every operation for assertions. Only tests link it.
package vfstest

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"syscall"

	"neurdb/internal/vfs"
)

// Injectable errors. EIO/ENOSPC are the real syscall errnos so code and
// tests can match them the same way they would match a production fault.
var (
	ErrIO      = syscall.EIO
	ErrNoSpace = syscall.ENOSPC
	// ErrCrashed is returned by every mutating operation after a crash-point
	// fault fires: the simulated machine has lost power, nothing reaches
	// disk anymore. Recovery tests reopen the directory with a clean FS.
	ErrCrashed = errors.New("vfs: simulated crash (post-crash write frozen)")
)

// Op identifies the kind of filesystem operation, for fault matching and
// the journal.
type Op string

const (
	OpOpenFile Op = "openfile"
	OpOpen     Op = "open"
	OpReadFile Op = "readfile"
	OpReadDir  Op = "readdir"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpMkdirAll Op = "mkdirall"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpTruncate Op = "truncate"
)

// mutating reports whether the op changes disk state; only these are frozen
// after a crash-point. Reads keep working — a crashed process can't read,
// but the test harness itself reopens files through a fresh FS, and freezing
// reads would only mask bugs in the failure path under test.
func (o Op) mutating() bool {
	switch o {
	case OpOpenFile, OpRename, OpRemove, OpMkdirAll, OpWrite, OpSync, OpTruncate:
		return true
	}
	return false
}

// Fault is one scripted fault. It fires on the Nth operation (1-based,
// counted per fault rule) whose kind matches Op and whose path contains
// Path as a substring (empty Path matches everything).
type Fault struct {
	Op   Op
	Path string
	Nth  int
	// Err is the injected error; defaults to ErrIO when nil.
	Err error
	// Short, for OpWrite faults, accepts the first Short bytes of the
	// triggering write before returning the error — a torn write.
	Short int
	// Crash marks this fault as a crash-point: after it fires, every
	// subsequent mutating operation on the whole FS fails with ErrCrashed,
	// simulating power loss at this exact instant.
	Crash bool

	seen int // matching ops observed so far (guarded by FaultFS.mu)
}

// OpRecord is one journaled operation.
type OpRecord struct {
	Op   Op
	Path string
	// N is the byte count for writes/truncates.
	N int
	// Err is the outcome, nil on success (injected faults included).
	Err error
}

// FaultFS wraps an inner FS and injects scripted faults while journaling
// every operation. Deterministic by construction: the same op sequence hits
// the same faults. Safe for concurrent use; the journal preserves the
// serialization order the mutex imposed.
type FaultFS struct {
	inner vfs.FS

	mu      sync.Mutex
	faults  []*Fault
	journal []OpRecord
	crashed bool
}

// NewFaultFS wraps inner (vfs.OS when nil).
func NewFaultFS(inner vfs.FS) *FaultFS {
	if inner == nil {
		inner = vfs.OS
	}
	return &FaultFS{inner: inner}
}

// AddFault schedules a fault. Returns the FaultFS for chaining.
func (f *FaultFS) AddFault(ft Fault) *FaultFS {
	if ft.Nth <= 0 {
		ft.Nth = 1
	}
	if ft.Err == nil {
		ft.Err = ErrIO
	}
	f.mu.Lock()
	f.faults = append(f.faults, &ft)
	f.mu.Unlock()
	return f
}

// Crashed reports whether a crash-point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// ClearFaults drops all scheduled faults (the crash flag persists).
func (f *FaultFS) ClearFaults() {
	f.mu.Lock()
	f.faults = nil
	f.mu.Unlock()
}

// Journal returns a copy of the op journal.
func (f *FaultFS) Journal() []OpRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]OpRecord(nil), f.journal...)
}

// CountOps returns how many journaled ops match kind and path substring.
func (f *FaultFS) CountOps(op Op, pathContains string) int {
	n := 0
	for _, r := range f.Journal() {
		if r.Op == op && strings.Contains(r.Path, pathContains) {
			n++
		}
	}
	return n
}

// check consults the fault script for one op about to execute. It returns
// the injected error (nil = proceed) and, for short writes, how many bytes
// to accept before failing (-1 = not a short write).
func (f *FaultFS) check(op Op, path string) (error, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed && op.mutating() {
		return ErrCrashed, -1
	}
	for _, ft := range f.faults {
		if ft.Op != op || !strings.Contains(path, ft.Path) {
			continue
		}
		ft.seen++
		if ft.seen != ft.Nth {
			continue
		}
		if ft.Crash {
			f.crashed = true
		}
		short := -1
		if op == OpWrite && ft.Short > 0 {
			short = ft.Short
		}
		return ft.Err, short
	}
	return nil, -1
}

func (f *FaultFS) record(op Op, path string, n int, err error) {
	f.mu.Lock()
	f.journal = append(f.journal, OpRecord{Op: op, Path: path, N: n, Err: err})
	f.mu.Unlock()
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	if err, _ := f.check(OpOpenFile, name); err != nil {
		f.record(OpOpenFile, name, 0, err)
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	inner, err := f.inner.OpenFile(name, flag, perm)
	f.record(OpOpenFile, name, 0, err)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

func (f *FaultFS) Open(name string) (vfs.File, error) {
	if err, _ := f.check(OpOpen, name); err != nil {
		f.record(OpOpen, name, 0, err)
		return nil, &os.PathError{Op: "open", Path: name, Err: err}
	}
	inner, err := f.inner.Open(name)
	f.record(OpOpen, name, 0, err)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, name: name, inner: inner}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err, _ := f.check(OpReadFile, name); err != nil {
		f.record(OpReadFile, name, 0, err)
		return nil, &os.PathError{Op: "read", Path: name, Err: err}
	}
	b, err := f.inner.ReadFile(name)
	f.record(OpReadFile, name, len(b), err)
	return b, err
}

func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) {
	if err, _ := f.check(OpReadDir, name); err != nil {
		f.record(OpReadDir, name, 0, err)
		return nil, &os.PathError{Op: "readdir", Path: name, Err: err}
	}
	ents, err := f.inner.ReadDir(name)
	f.record(OpReadDir, name, len(ents), err)
	return ents, err
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	// Matched and journaled under the destination: checkpoint publication
	// renames tmp → final, and the final name is what the script targets.
	if err, _ := f.check(OpRename, newpath); err != nil {
		f.record(OpRename, newpath, 0, err)
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: err}
	}
	err := f.inner.Rename(oldpath, newpath)
	f.record(OpRename, newpath, 0, err)
	return err
}

func (f *FaultFS) Remove(name string) error {
	if err, _ := f.check(OpRemove, name); err != nil {
		f.record(OpRemove, name, 0, err)
		return &os.PathError{Op: "remove", Path: name, Err: err}
	}
	err := f.inner.Remove(name)
	f.record(OpRemove, name, 0, err)
	return err
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err, _ := f.check(OpMkdirAll, path); err != nil {
		f.record(OpMkdirAll, path, 0, err)
		return &os.PathError{Op: "mkdir", Path: path, Err: err}
	}
	err := f.inner.MkdirAll(path, perm)
	f.record(OpMkdirAll, path, 0, err)
	return err
}

// faultFile routes per-file ops back through the owning FaultFS script.
type faultFile struct {
	fs    *FaultFS
	name  string
	inner vfs.File
}

func (ff *faultFile) Read(p []byte) (int, error) {
	// Reads are not in the fault script (recovery reads use ReadFile);
	// journaled only when they fail, to keep the journal signal-dense.
	n, err := ff.inner.Read(p)
	if err != nil && !errors.Is(err, io.EOF) {
		ff.fs.record(OpOpen, ff.name, n, err)
	}
	return n, err
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if err, short := ff.fs.check(OpWrite, ff.name); err != nil {
		n := 0
		if short > 0 {
			if short > len(p) {
				short = len(p)
			}
			// Torn write: part of the payload reaches the file before the
			// device fails. Inner write errors surface over the scripted one
			// because they mean the substrate itself broke.
			var werr error
			n, werr = ff.inner.Write(p[:short])
			if werr != nil {
				err = werr
			}
		}
		ff.fs.record(OpWrite, ff.name, n, err)
		return n, &os.PathError{Op: "write", Path: ff.name, Err: err}
	}
	n, err := ff.inner.Write(p)
	ff.fs.record(OpWrite, ff.name, n, err)
	return n, err
}

func (ff *faultFile) Sync() error {
	if err, _ := ff.fs.check(OpSync, ff.name); err != nil {
		ff.fs.record(OpSync, ff.name, 0, err)
		return &os.PathError{Op: "sync", Path: ff.name, Err: err}
	}
	err := ff.inner.Sync()
	ff.fs.record(OpSync, ff.name, 0, err)
	return err
}

func (ff *faultFile) Close() error {
	if err, _ := ff.fs.check(OpClose, ff.name); err != nil {
		ff.fs.record(OpClose, ff.name, 0, err)
		// The underlying descriptor is still released — a scripted close
		// failure should not leak fds in long fault-matrix test runs.
		_ = ff.inner.Close()
		return &os.PathError{Op: "close", Path: ff.name, Err: err}
	}
	err := ff.inner.Close()
	ff.fs.record(OpClose, ff.name, 0, err)
	return err
}

func (ff *faultFile) Truncate(size int64) error {
	if err, _ := ff.fs.check(OpTruncate, ff.name); err != nil {
		ff.fs.record(OpTruncate, ff.name, int(size), err)
		return &os.PathError{Op: "truncate", Path: ff.name, Err: err}
	}
	err := ff.inner.Truncate(size)
	ff.fs.record(OpTruncate, ff.name, int(size), err)
	return err
}

// String renders a fault for test failure messages.
func (ft Fault) String() string {
	return fmt.Sprintf("fault{%s %q nth=%d err=%v short=%d crash=%v}",
		ft.Op, ft.Path, ft.Nth, ft.Err, ft.Short, ft.Crash)
}
