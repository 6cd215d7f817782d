package vfs_test

import (
	"os"
	"path/filepath"
	"testing"

	"neurdb/internal/vfs"
)

func TestOSPassthrough(t *testing.T) {
	dir := t.TempDir()
	name := filepath.Join(dir, "a.txt")
	f, err := vfs.OS.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b, err := vfs.OS.ReadFile(name)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile: %q, %v", b, err)
	}
	if err := vfs.OS.Rename(name, filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	ents, err := vfs.OS.ReadDir(dir)
	if err != nil || len(ents) != 1 || ents[0].Name() != "b.txt" {
		t.Fatalf("ReadDir: %v, %v", ents, err)
	}
	if err := vfs.OS.Remove(filepath.Join(dir, "b.txt")); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	// Failed opens must return an untyped nil interface so `if f != nil`
	// cleanup paths behave.
	if f, err := vfs.OS.OpenFile(filepath.Join(dir, "nope", "x"), os.O_WRONLY, 0o644); err == nil || f != nil {
		t.Fatalf("expected nil file + error, got %v, %v", f, err)
	}
}
