package neurdb

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestWALAndCheckpointBytesPinned runs a fixed script over every value type
// (INT extremes, DOUBLE with -0.0, TEXT (empty and long), BOOL,
// NULL) through INSERT, UPDATE, DELETE, a checkpoint and one more INSERT,
// and pins the SHA-256 of the WAL segment before the checkpoint, of the
// checkpoint image and of the segment after it. The codecs encode a value by
// its type, not by its in-memory layout, so these bytes must not move when
// rel.Value does: the hashes were recorded with the five-field 48-byte
// Value that preceded the 32-byte one, and hold across the 32-byte to
// 16-byte change too. Workers = 1, because parallel DML logs its redo ops
// in claim order.
func TestWALAndCheckpointBytesPinned(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	cfg.Workers = 1
	db, err := OpenDB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(pattern string) string {
		t.Helper()
		files, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(files) != 1 {
			t.Fatalf("%s: %v %v", pattern, files, err)
		}
		b, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.Sum256(b)
		return hex.EncodeToString(h[:])
	}
	for _, sql := range []string{
		`CREATE TABLE t (id INT PRIMARY KEY, x DOUBLE, s TEXT, b BOOLEAN)`,
		`CREATE INDEX t_x ON t (x)`,
		`INSERT INTO t VALUES (1, -0.0, 'a', TRUE), (2, 2.5, '', FALSE), (3, NULL, NULL, NULL),
			(-9223372036854775808, 1e300, 'a long text value that needs more than one word of storage', TRUE),
			(9223372036854775807, -1.5e-300, 'max', FALSE), (9007199254740993, 0.1, 'big', NULL)`,
		`UPDATE t SET x = x + 1, s = 'upd' WHERE id = 2`,
		`UPDATE t SET b = NOT b WHERE id < 0`,
		`DELETE FROM t WHERE id = 3`,
	} {
		mustExec(t, db, sql)
	}
	got := map[string]string{"wal before checkpoint": sum("wal-*.log")}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (4, -0.0, 'after', FALSE)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	got["checkpoint"] = sum("checkpoint-*.ckpt")
	got["wal after checkpoint"] = sum("wal-*.log")
	want := map[string]string{
		"wal before checkpoint": "5433abfb189f8d45fb699bcbec41e173ade163dccfd49bf14d892e58958e1067",
		"checkpoint":            "a4c21adfb5aa1d15b21b4655e35700bd53ea56e25b39a25fd32d2ad0d76967f5",
		"wal after checkpoint":  "9102ed1d05cef32f3ad4dbe95946c78633fcff96425c167e89525d5fd948e14f",
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: sha256 %s, want %s", k, got[k], w)
		}
	}
}
