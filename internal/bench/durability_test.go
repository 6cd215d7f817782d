package bench

import (
	"os"
	"testing"
	"time"

	"neurdb"
	"neurdb/internal/vfs"
)

// slowSyncFS is a filesystem whose file fsyncs each take slowSync, longer
// than the storm below lasts.
type slowSyncFS struct{ vfs.FS }

const slowSync = 150 * time.Millisecond

func (fs slowSyncFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return slowSyncFile{f}, nil
}

type slowSyncFile struct{ vfs.File }

func (f slowSyncFile) Sync() error {
	time.Sleep(slowSync)
	return f.File.Sync()
}

// TestDurabilityStormOutlastsSlowFsync: when one fsync takes longer than the
// storm, the storm keeps its writer committing until an fsync completes, so
// it still measures a group of at least one commit.
func TestDurabilityStormOutlastsSlowFsync(t *testing.T) {
	cfg := neurdb.DefaultConfig()
	cfg.DataDir = t.TempDir()
	cfg.FS = slowSyncFS{vfs.OS}
	cfg.CheckpointInterval, cfg.CheckpointWalMB = 0, 0
	tps, size, err := durabilityStorm(cfg, 1, slowSync/10)
	if err != nil {
		t.Fatal(err)
	}
	if tps <= 0 || size < 1 {
		t.Fatalf("a storm shorter than one fsync: %.1f tps, group size %.2f", tps, size)
	}
}
