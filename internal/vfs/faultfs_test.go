package vfs_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"neurdb/internal/vfs"
	"neurdb/internal/vfs/vfstest"
)

// The tests of vfstest.FaultFS, the test double of the FS contract, sit
// beside that contract.

func TestFaultNthMatch(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(vfs.OS)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpSync, Path: "wal", Nth: 2, Err: vfstest.ErrIO})

	f, err := ffs.OpenFile(filepath.Join(dir, "wal-00000001.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync should pass: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("second sync should inject EIO, got %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync should pass again: %v", err)
	}
	if got := ffs.CountOps(vfstest.OpSync, "wal"); got != 3 {
		t.Fatalf("journal should hold 3 syncs, got %d", got)
	}
}

func TestFaultPathFilter(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(vfs.OS)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Path: "checkpoint", Err: vfstest.ErrNoSpace})

	wal, _ := ffs.OpenFile(filepath.Join(dir, "wal-1.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if _, err := wal.Write([]byte("x")); err != nil {
		t.Fatalf("non-matching path must not fault: %v", err)
	}
	ck, _ := ffs.OpenFile(filepath.Join(dir, "checkpoint-1.tmp"), os.O_CREATE|os.O_WRONLY, 0o644)
	if _, err := ck.Write([]byte("x")); !errors.Is(err, vfstest.ErrNoSpace) {
		t.Fatalf("matching path must inject ENOSPC, got %v", err)
	}
}

func TestShortWrite(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "seg.log")
	ffs := vfstest.NewFaultFS(vfs.OS)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Nth: 1, Short: 3, Err: vfstest.ErrNoSpace})

	f, _ := ffs.OpenFile(name, os.O_CREATE|os.O_WRONLY, 0o644)
	n, err := f.Write([]byte("abcdef"))
	if n != 3 || !errors.Is(err, vfstest.ErrNoSpace) {
		t.Fatalf("want short write of 3 + ENOSPC, got n=%d err=%v", n, err)
	}
	// The torn prefix really reached the file.
	b, rerr := os.ReadFile(name)
	if rerr != nil || string(b) != "abc" {
		t.Fatalf("torn prefix on disk: %q, %v", b, rerr)
	}
}

func TestCrashPointFreezesMutations(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(vfs.OS)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpWrite, Nth: 2, Crash: true})

	f, _ := ffs.OpenFile(filepath.Join(dir, "seg.log"), os.O_CREATE|os.O_WRONLY, 0o644)
	if _, err := f.Write([]byte("one")); err != nil {
		t.Fatalf("pre-crash write: %v", err)
	}
	if _, err := f.Write([]byte("two")); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("crash-point write should fail with default EIO, got %v", err)
	}
	if !ffs.Crashed() {
		t.Fatal("FS should report crashed")
	}
	// Everything mutating is now frozen, on any path.
	if _, err := f.Write([]byte("x")); !errors.Is(err, vfstest.ErrCrashed) {
		t.Fatalf("post-crash write: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, vfstest.ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	if err := ffs.Rename(filepath.Join(dir, "a"), filepath.Join(dir, "b")); !errors.Is(err, vfstest.ErrCrashed) {
		t.Fatalf("post-crash rename: %v", err)
	}
	if _, err := ffs.OpenFile(filepath.Join(dir, "new.log"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, vfstest.ErrCrashed) {
		t.Fatalf("post-crash create: %v", err)
	}
	// Reads still work: the harness inspects state through the same FS.
	if _, err := ffs.ReadDir(dir); err != nil {
		t.Fatalf("post-crash readdir should pass: %v", err)
	}
	// Pre-crash data survives.
	b, err := os.ReadFile(filepath.Join(dir, "seg.log"))
	if err != nil || string(b) != "one" {
		t.Fatalf("pre-crash bytes: %q, %v", b, err)
	}
}

func TestJournalRecordsOutcomes(t *testing.T) {
	dir := t.TempDir()
	ffs := vfstest.NewFaultFS(vfs.OS)
	ffs.AddFault(vfstest.Fault{Op: vfstest.OpRename, Path: "final", Err: vfstest.ErrIO})

	src := filepath.Join(dir, "t.tmp")
	if f, err := ffs.OpenFile(src, os.O_CREATE|os.O_WRONLY, 0o644); err != nil {
		t.Fatal(err)
	} else if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ffs.Rename(src, filepath.Join(dir, "final")); !errors.Is(err, vfstest.ErrIO) {
		t.Fatalf("rename should fault: %v", err)
	}
	j := ffs.Journal()
	var sawOpen, sawClose, sawRename bool
	for _, r := range j {
		switch r.Op {
		case vfstest.OpOpenFile:
			sawOpen = r.Err == nil
		case vfstest.OpClose:
			sawClose = r.Err == nil
		case vfstest.OpRename:
			sawRename = errors.Is(r.Err, vfstest.ErrIO)
		}
	}
	if !sawOpen || !sawClose || !sawRename {
		t.Fatalf("journal missing records: %+v", j)
	}
}
