package wal

import (
	"encoding/binary"
	"os"
	"testing"

	"neurdb/internal/rel"
	"neurdb/internal/storage"
)

// buildSegment writes a single-segment log with n commit records and returns
// the segment path, the file contents, and the offset at which the last
// record's frame (header + payload) begins.
func buildSegment(t *testing.T, dir string, n int) (path string, data []byte, lastOff int) {
	t.Helper()
	l, err := Open(Options{Dir: dir, Mode: SyncCommit})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		lsn, err := l.AppendCommit(uint64(i+1), opList{{
			Kind:  OpInsert,
			Table: 1,
			ID:    storage.RowID{Page: 0, Slot: uint32(i)},
			Row:   rel.Row{rel.Int(int64(i)), rel.Text("torn-tail-probe")},
		}})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(lsn); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := ListSegments(nil, dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment, got %d (err=%v)", len(segs), err)
	}
	path = segs[0].Path
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Walk the frames to find where the last record begins.
	off := segmentHeaderLen
	for i := 0; i < n; i++ {
		lastOff = off
		length := int(binary.LittleEndian.Uint32(data[off:]))
		off += recordHeaderLen + length
	}
	if off != len(data) {
		t.Fatalf("frame walk ended at %d, file is %d bytes", off, len(data))
	}
	return path, data, lastOff
}

// replayCount replays dir and returns the records applied plus the stats.
func replayCount(t *testing.T, dir string) (ReplayStats, []uint64) {
	t.Helper()
	var seen []uint64
	st, err := ReplaySegments(nil, dir, func(r *Record) error {
		seen = append(seen, r.CommitTS)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return st, seen
}

// TestTornTailTruncation truncates the final segment at every byte boundary
// inside the last record's frame. Each cut simulates a crash mid-append;
// replay must stop cleanly at the last whole record — never error, never
// surface a partial record.
func TestTornTailTruncation(t *testing.T) {
	const n = 3
	base := t.TempDir()
	path, data, lastOff := buildSegment(t, base, n)

	for cut := lastOff; cut < len(data); cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, seen := replayCount(t, base)
		if st.Records != n-1 {
			t.Fatalf("cut=%d: replayed %d records, want %d", cut, st.Records, n-1)
		}
		// A cut exactly at the record boundary leaves a clean shorter log —
		// indistinguishable from never having appended the last record — so
		// only cuts inside the frame report a torn tail.
		if torn := cut > lastOff; st.Truncated != torn {
			t.Fatalf("cut=%d: Truncated=%v, want %v", cut, st.Truncated, torn)
		}
		if len(seen) != n-1 || seen[n-2] != n-1 {
			t.Fatalf("cut=%d: wrong records survived: %v", cut, seen)
		}
	}

	// Restore the full file: all n records come back, no truncation flag.
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, seen := replayCount(t, base)
	if st.Records != n || st.Truncated || seen[n-1] != n {
		t.Fatalf("intact file: %+v %v", st, seen)
	}
}

// TestTornTailCorruption flips each byte of the last record's frame in turn.
// A corrupted length field, CRC, or payload in the final segment is
// indistinguishable from a torn append and must truncate to the previous
// record, not error.
func TestTornTailCorruption(t *testing.T) {
	const n = 3
	base := t.TempDir()
	path, data, lastOff := buildSegment(t, base, n)

	for pos := lastOff; pos < len(data); pos++ {
		mut := make([]byte, len(data))
		copy(mut, data)
		mut[pos] ^= 0xff
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		st, seen := replayCount(t, base)
		// A flipped length byte can make the frame look short (truncated) or
		// implausibly long; either way the last whole record is record n-1.
		if st.Records != n-1 {
			t.Fatalf("pos=%d: replayed %d records, want %d", pos, st.Records, n-1)
		}
		if !st.Truncated {
			t.Fatalf("pos=%d: corruption not reported as torn tail", pos)
		}
		if len(seen) != n-1 || seen[n-2] != n-1 {
			t.Fatalf("pos=%d: wrong records survived: %v", pos, seen)
		}
	}
}

// TestTornSegmentHeader truncates or corrupts the final segment's own header:
// the crash interrupted segment creation, so replay treats the segment as
// empty rather than failing.
func TestTornSegmentHeader(t *testing.T) {
	base := t.TempDir()
	path, data, _ := buildSegment(t, base, 1)

	for cut := 0; cut < segmentHeaderLen; cut++ {
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		st, _ := replayCount(t, base)
		if st.Records != 0 || !st.Truncated {
			t.Fatalf("cut=%d: %+v, want empty truncated segment", cut, st)
		}
	}
}
